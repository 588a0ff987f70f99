package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.data.Datasets
import repro.federation.Storage
import repro.harness.Tables

/** spark-submit entrypoint for every paper table/figure:
  * `RunTable <T1|F1|F4|F5|F6|F8> [scale…]`. The id is the table's
  * placeholder key in EXPERIMENTS.md; the optional scale arguments are
  *  - T1: `[rows]` of the attack dataset (100k);
  *  - F1: `[maxRows]` (1.6M), simulated at 1/8, 1/4, 1/2 and all of it;
  *  - F4, F5, F6: `[adultRows] [amazonRows] [m]` (1.6M, 24M, 10 queries);
  *  - F8: `[adultRows] [iters]` (1.6M, 5).
  */
object RunTable {
  val Ids: Seq[String] = Seq("T1", "F1", "F4", "F5", "F6", "F8")

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, s"usage: RunTable <${Ids.mkString("|")}> [scale…]")
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-${args(0)}")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(run(spark, args(0), args.toSeq.tail.map(_.toLong)))
    finally spark.stop()
  }

  /** Runs table `id` at the given scale and returns its `== <title> ==`
    * banner line followed by the table, the form `scripts/fill_experiments.py`
    * splices into EXPERIMENTS.md.
    */
  def run(spark: SparkSession, id: String, scale: Seq[Long]): String = {
    def arg(i: Int, default: Long): Long = scale.lift(i).getOrElse(default)
    id match {
      case "T1" =>
        val (rows, control, majority) =
          Tables.attackAnalysis(spark, arg(0, 100000L), xis = Seq(1.0, 20.0, 50.0, 100.0))
        Seq("== Table 1: inference accuracy based on xi ==",
          f"no-privacy control (exact answers): accuracy = ${control * 100}%.2f%%; " +
            f"majority-class baseline: ${majority * 100}%.2f%%",
          Tables.fmt(rows, Seq("composition", "agg", "xi", "accuracy", "perQueryEps"))).mkString("\n")

      case "F1" =>
        val maxRows = arg(0, 1600000L)
        val rows = Tables.rowSharingSimulation(spark,
          Seq(maxRows / 8, maxRows / 4, maxRows / 2, maxRows))
        "== Figure 1: SMC row sharing vs result sharing ==\n" +
          Tables.fmt(rows, Seq("rows", "rowSharingMs", "resultSharingMs", "ratio"))

      case "F4" | "F5" | "F6" =>
        val adult = Tables.setupAdult(spark, arg(0, 1600000L), Storage.Parquet())
        val amazon = Tables.setupAmazon(spark, arg(1, 24000000L), Storage.Parquet())
        val m = arg(2, 10L).toInt
        val epss = Seq(0.1, 0.4, 0.7, 1.0, 1.3)
        val srs = Seq(5, 10, 15, 20)
        val (banner, rows, header) = id match {
          case "F4" => ("Figure 4/7: dimension-based analysis",
            Tables.dimensionAnalysis(adult, "Adult", Datasets.adultDims, 2 to 6, m, sr = 0.20) ++
              Tables.dimensionAnalysis(amazon, "Amazon", Datasets.amazonDims, 2 to 5, m, sr = 0.05),
            Seq("dataset", "n", "agg", "avgRelErr", "avgSpeedup"))
          case "F5" => ("Figure 5: sampling-rate-based analysis",
            Tables.samplingRateAnalysis(adult, "Adult", Datasets.adultDims, srs, m) ++
              Tables.samplingRateAnalysis(amazon, "Amazon", Datasets.amazonDims, srs, m),
            Seq("dataset", "sr%", "agg", "avgRelErr", "avgSpeedup"))
          case "F6" => ("Figure 6/7: privacy-budget-based analysis",
            Tables.epsilonAnalysis(adult, "Adult", Datasets.adultDims, epss, m, sr = 0.10) ++
              Tables.epsilonAnalysis(amazon, "Amazon", Datasets.amazonDims, epss, m, sr = 0.05),
            Seq("dataset", "eps", "agg", "avgRelErr", "avgSpeedup"))
        }
        s"== $banner ==\n" + Tables.fmt(rows, header)

      case "F8" =>
        val adult = Tables.setupAdult(spark, arg(0, 1600000L), Storage.Parquet())
        val rows = Tables.smcVsDp(adult, Datasets.adultDims, iters = arg(1, 5L).toInt)
        "== Figure 8: SMC effect on speed-up and accuracy ==\n" +
          Tables.fmt(rows, Seq("query", "mode", "|noise|min", "|noise|max", "avgRelErr", "avgSpeedup"))

      case _ =>
        throw new IllegalArgumentException(
          s"unknown table id '$id'; valid ids: ${Ids.mkString(", ")}")
    }
  }
}
