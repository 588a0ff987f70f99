package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Physical evaluation of range queries against the clustered, federated
  * tensor. The protocol only ever needs two primitives:
  *
  *  - `perCluster`: `Q(C)` for a *sampled* subset of clusters (the paper's
  *    approximation scan — must touch only those clusters), and
  *  - `exactTotal`: the plain-text full-scan answer (the speed-up baseline
  *    and the error ground truth).
  *
  * Two implementations exist: [[SparkClusterEval]] runs real DataFrame jobs
  * (partition pruning gives the I/O saving); [[InMemoryClusterEval]] replays
  * the same semantics over driver-side arrays kept in one block per cluster,
  * so it too reads only the sampled clusters, for statistical tests and the
  * attack bench that issue thousands of protocol runs (DESIGN.md §3).
  */
trait ClusterEval {
  /** `Q(C)` per sampled `(provider, cluster)` key, for every key in
    * `sampled` — clusters with no matching rows report 0.
    */
  def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double]

  /** Exact plain-text answer over the full federation. */
  def exactTotal(q: RangeQuery): Double

  /** Exact plain-text answer over one provider's partition. */
  def exactLocal(providerId: Int, q: RangeQuery): Double
}

/** DataFrame-backed evaluation. `df` must carry `provider_id`, `cluster_id`,
  * the dimension columns and `measure`; when it is read from parquet
  * partitioned by `(provider_id, cluster_id)`, the `perCluster` filter is a
  * partition filter and only the sampled files are scanned — the Spark
  * analog of page-level cluster sampling.
  */
final class SparkClusterEval(val df: DataFrame) extends ClusterEval {
  import Clustering.{ClusterCol, ProviderCol}

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    if (sampled.isEmpty || sampled.forall(_._2.isEmpty)) return Map.empty
    val keyFilter = sampled.toSeq
      .filter(_._2.nonEmpty)
      .map { case (p, cs) =>
        col(ProviderCol) === p && col(ClusterCol).isin(cs.map(Integer.valueOf): _*)
      }
      .reduce(_ || _)
    val got = df
      .filter(keyFilter && q.predicate)
      .groupBy(col(ProviderCol), col(ClusterCol))
      .agg(q.aggregate().as("answer"))
      .collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2))
      .toMap
    val all = for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)
    all.map(k => k -> got.getOrElse(k, 0.0)).toMap
  }

  override def exactTotal(q: RangeQuery): Double =
    df.filter(q.predicate).agg(q.aggregate().as("answer")).head.getDouble(0)

  override def exactLocal(providerId: Int, q: RangeQuery): Double =
    df.filter(col(ProviderCol) === providerId && q.predicate)
      .agg(q.aggregate().as("answer")).head.getDouble(0)
}

/** Driver-side replay of the same semantics over collected rows, laid out
  * the way the parquet store is: rows sorted by `(provider, cluster)`, one
  * block per cluster holding its row range and the per-dimension min/max of
  * its rows. `perCluster` reads only the sampled clusters' row ranges (the
  * analog of partition pruning), and the exact scans skip any block whose
  * min/max box misses the query (the analog of parquet row-group
  * statistics). Build it once from the clustered federated DataFrame; every
  * subsequent query is a pure in-memory scan (no Spark job).
  *
  * @param blockKeys  ascending `(provider, cluster)` sort key of each block
  * @param blockStart row range of block `b` is `[blockStart(b), blockStart(b + 1))`
  * @param blockMin   per dimension, per block: the smallest value in the block
  * @param blockMax   per dimension, per block: the largest value in the block
  */
final class InMemoryClusterEval private (
    blockKeys: Array[Long], blockStart: Array[Int],
    blockMin: Array[Array[Int]], blockMax: Array[Array[Int]],
    dimCols: Array[String], dimValues: Array[Array[Int]], measures: Array[Long])
    extends ClusterEval {
  import InMemoryClusterEval.key

  private val dimIndex: Map[String, Int] = dimCols.zipWithIndex.toMap

  /** Hoisted per-query predicate state: parallel arrays of (dim column,
    * lb, ub) so the row loop is branch-cheap (the attack bench replays tens
    * of thousands of protocol runs through this path).
    */
  private final class Pred(q: RangeQuery) {
    val cols: Array[Array[Int]] = q.ranges.map(r => dimValues(dimIndex(r.dim))).toArray
    val mins: Array[Array[Int]] = q.ranges.map(r => blockMin(dimIndex(r.dim))).toArray
    val maxs: Array[Array[Int]] = q.ranges.map(r => blockMax(dimIndex(r.dim))).toArray
    val lbs: Array[Int] = q.ranges.map(_.lb).toArray
    val ubs: Array[Int] = q.ranges.map(_.ub).toArray
    val isCount: Boolean = q.agg == Agg.Count
    def matches(row: Int): Boolean = {
      var d = 0
      while (d < cols.length) {
        val v = cols(d)(row)
        if (v < lbs(d) || v > ubs(d)) return false
        d += 1
      }
      true
    }
    def contribution(row: Int): Double =
      if (isCount) 1.0 else measures(row).toDouble

    /** Whether block `b`'s min/max box intersects every query range. */
    def overlaps(b: Int): Boolean = {
      var d = 0
      while (d < cols.length) {
        if (mins(d)(b) > ubs(d) || maxs(d)(b) < lbs(d)) return false
        d += 1
      }
      true
    }

    /** `Q` over block `b`'s rows; 0 without a row walk when its box misses. */
    def block(b: Int): Double = {
      if (!overlaps(b)) return 0.0
      var s = 0.0; var i = blockStart(b); val end = blockStart(b + 1)
      while (i < end) {
        if (matches(i)) s += contribution(i)
        i += 1
      }
      s
    }
  }

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val pred = new Pred(q)
    val out = Map.newBuilder[(Int, Int), Double]
    for ((p, cs) <- sampled; c <- cs) {
      val b = java.util.Arrays.binarySearch(blockKeys, key(p, c))
      out += (p, c) -> (if (b < 0) 0.0 else pred.block(b))
    }
    out.result()
  }

  override def exactTotal(q: RangeQuery): Double = {
    val pred = new Pred(q)
    var s = 0.0; var b = 0
    while (b < blockKeys.length) { s += pred.block(b); b += 1 }
    s
  }

  override def exactLocal(providerId: Int, q: RangeQuery): Double = {
    val pred = new Pred(q)
    // the provider's blocks are contiguous, starting at or after key(p, 0)
    val first = java.util.Arrays.binarySearch(blockKeys, key(providerId, 0))
    var s = 0.0; var b = if (first < 0) -first - 1 else first
    while (b < blockKeys.length && (blockKeys(b) >> 32).toInt == providerId) {
      s += pred.block(b); b += 1
    }
    s
  }
}

object InMemoryClusterEval {
  /** Sort key of a `(provider, cluster)` block: provider in the high word,
    * cluster in the low word, so a provider's blocks are contiguous.
    */
  private def key(provider: Int, cluster: Int): Long =
    (provider.toLong << 32) | (cluster & 0xffffffffL)

  /** Collect a clustered federated DataFrame (provider_id, cluster_id,
    * dims..., measure) into driver arrays sorted by `(provider, cluster)`,
    * and index one block per cluster.
    */
  def fromDataFrame(df: DataFrame, dims: Seq[String]): InMemoryClusterEval = {
    val rows = df
      .select(
        (Seq(col(Clustering.ProviderCol).cast("int"), col(Clustering.ClusterCol).cast("int")) ++
          dims.map(d => col(d).cast("int")) :+ col(Tensor.MeasureCol).cast("long")): _*)
      .collect()
      .sortBy(r => key(r.getInt(0), r.getInt(1)))
    val keys = rows.map(r => key(r.getInt(0), r.getInt(1)))
    val blockStart = (0 until rows.length)
      .filter(i => i == 0 || keys(i) != keys(i - 1)).toArray :+ rows.length
    val blockKeys = blockStart.init.map(keys(_))
    val dimValues = Array.tabulate(dims.size)(d => rows.map(_.getInt(2 + d)))
    val measures = rows.map(_.getLong(2 + dims.size))
    def perBlock(stat: Array[Int] => Int): Array[Array[Int]] = dimValues.map { vs =>
      blockKeys.indices.map(b => stat(vs.slice(blockStart(b), blockStart(b + 1)))).toArray
    }
    new InMemoryClusterEval(blockKeys, blockStart, perBlock(_.min), perBlock(_.max),
      dims.toArray, dimValues, measures)
  }
}
