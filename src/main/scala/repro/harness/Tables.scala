package repro.harness

import scala.util.Random

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.baseline.RowSharingSmc
import repro.core.{Agg, Clustering, RangeQuery, Tensor}
import repro.data.{Datasets, DimSpec}
import repro.dp.Composition
import repro.federation._
import repro.attack.NbcAttack

/** Shared experiment harnesses — one function per paper table/figure
  * (DESIGN.md §5). Bench suites call them at laptop scale; `jobs/RunTable`
  * exposes them to spark-submit with caller-chosen scale.
  *
  * Measurement split: wall-clock **speed-ups** come from parquet-backed
  * Spark runs (one per query, after a warm-up exact pass); **error and
  * noise** statistics average several repetitions of the identical protocol
  * on the in-memory replay, so DP-noise variance is integrated out without
  * paying a Spark job per repetition (the paper averages m = 100 queries on
  * a cluster instead).
  */
object Tables {

  /** Paper defaults (§6.1): 4 providers, δ=1e−3, budget split 0.1/0.1/0.8. */
  val DefaultCfg: FedConfig = FedConfig(hp1 = 0.1, hp2 = 0.1, hp3 = 0.8, delta = 1e-3, nMin = 8)
  val NProviders = 4

  /** Error repetitions per (query, configuration) on the in-memory replay. */
  val ErrReps = 5

  /** Adult-like federation: S = 1% of the provider-local tensor. */
  def setupAdult(spark: SparkSession, rows: Long, storage: Storage,
                 cfg: FedConfig = DefaultCfg): FederationSetup =
    Setup.build(spark, Datasets.adultRaw(spark, rows), Datasets.adultDims.map(_.name),
      NProviders, clusterFrac = 0.01, cfg, storage, seed = 42L, skewProviders = true)

  /** AmazonReview-like federation: S = 0.5% of the provider-local tensor. */
  def setupAmazon(spark: SparkSession, rows: Long, storage: Storage,
                  cfg: FedConfig = DefaultCfg): FederationSetup =
    Setup.build(spark, Datasets.amazonRaw(spark, rows), Datasets.amazonDims.map(_.name),
      NProviders, clusterFrac = 0.005, cfg, storage, seed = 43L, skewProviders = true)

  private def aggName(a: Agg): String = a match {
    case Agg.Count      => "COUNT"
    case Agg.SumMeasure => "SUM"
  }

  /** Exact scan timed twice; the first run warms caches and codegen, the
    * second is the reported baseline.
    */
  private def exactTimed(fed: Federation, q: RangeQuery): (Double, Double) = {
    fed.exactWithTime(q)
    fed.exactWithTime(q)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Median wall-clock speed-up: one Spark run per query, with the exact
    * baseline re-measured adjacent to each approximate run (stale baselines
    * drift under GC/page-cache churn), after two unmeasured warm-up runs of
    * each code path.
    */
  private def timeWorkload(setup: FederationSetup, qs: Seq[RangeQuery], sr: Double,
                           eps: Double, seed: Long): Double = {
    val fed = setup.federation
    qs.take(2).foreach { q =>
      fed.run(q, sr, eps, useSmc = false, seed = seed - 7, exactBaseline = Some((0.0, 0.0)))
      fed.exactWithTime(q)
    }
    median(qs.zipWithIndex.map { case (q, i) =>
      fed.run(q, sr, eps, useSmc = false, seed = seed + i).speedup
    })
  }

  /** Mean relative error over [[ErrReps]] in-memory protocol repetitions
    * per query (identical math to the Spark runs; noise variance averaged
    * out without a Spark job per repetition).
    */
  private def errWorkload(setup: FederationSetup, qs: Seq[RangeQuery], sr: Double,
                          eps: Double, seed: Long): Double = {
    val mem = setup.inMemory(setup.federation.cfg)
    val errs = for ((q, i) <- qs.zipWithIndex; exact = setup.replay.exactTotal(q);
                    r <- 0 until ErrReps) yield {
      mem.run(q, sr, eps, useSmc = false, seed = seed * 1000 + i * 31 + r,
        exactBaseline = Some((exact, 0.0))).relativeError
    }
    errs.sum / errs.size
  }



  // ----------------------------------------------------------------------
  // Figure 4 + Figure 7 (dimension axis)
  // ----------------------------------------------------------------------

  final case class DimRow(dataset: String, n: Int, agg: String,
                          avgRelErr: Double, avgSpeedup: Double)

  /** Dimension-based analysis (§6.2): error and speed-up vs `n` query dims.
    * Paper: sr = 20% Adult / 5% Amazon, ε = 1.
    */
  def dimensionAnalysis(setup: FederationSetup, dataset: String, dims: Seq[DimSpec],
                        nRange: Seq[Int], m: Int, sr: Double, eps: Double = 1.0,
                        seed: Long = 7L): Seq[DimRow] = {
    val fed = setup.federation
    setup.replay // hoist the big in-memory collect out of the timed region
    val combos = for {
      n <- nRange
      agg <- Seq(Agg.Count, Agg.SumMeasure)
    } yield (n, agg, Datasets.qualifyingWorkload(fed, dims, m, n, agg, seed + n))
    // timing pass for every combo first, error passes after — the in-memory
    // error replay churns hundreds of MB and would pollute later timings
    val sps = combos.map { case (n, _, qs) =>
      timeWorkload(setup, qs, sr, eps, seed * 100 + n)
    }
    combos.zip(sps).map { case ((n, agg, qs), sp) =>
      DimRow(dataset, n, aggName(agg), errWorkload(setup, qs, sr, eps, seed * 100 + n), sp)
    }
  }

  // ----------------------------------------------------------------------
  // Figure 5 (sampling-rate axis)
  // ----------------------------------------------------------------------

  final case class SrRow(dataset: String, srPct: Int, agg: String,
                         avgRelErr: Double, avgSpeedup: Double)

  /** Sampling-rate analysis (§6.3): n = 4, sr ∈ {5,10,15,20}%, ε = 1. */
  def samplingRateAnalysis(setup: FederationSetup, dataset: String, dims: Seq[DimSpec],
                           srsPct: Seq[Int], m: Int, n: Int = 4, eps: Double = 1.0,
                           seed: Long = 17L): Seq[SrRow] = {
    val fed = setup.federation
    setup.replay
    (for (agg <- Seq(Agg.Count, Agg.SumMeasure)) yield {
      val qs = Datasets.qualifyingWorkload(fed, dims, m, n, agg,
        seed + (if (agg == Agg.Count) 0 else 1))
      val sps = srsPct.map(pct => timeWorkload(setup, qs, pct / 100.0, eps, seed * 100 + pct))
      srsPct.zip(sps).map { case (pct, sp) =>
        SrRow(dataset, pct, aggName(agg),
          errWorkload(setup, qs, pct / 100.0, eps, seed * 100 + pct), sp)
      }
    }).flatten
  }

  // ----------------------------------------------------------------------
  // Figure 6 + Figure 7 (ε axis)
  // ----------------------------------------------------------------------

  final case class EpsRow(dataset: String, eps: Double, agg: String,
                          avgRelErr: Double, avgSpeedup: Double)

  /** Privacy-budget analysis (§6.4): n = 4, ε ∈ [0.1, 1.3];
    * sr = 5% Amazon / 10% Adult.
    */
  def epsilonAnalysis(setup: FederationSetup, dataset: String, dims: Seq[DimSpec],
                      epss: Seq[Double], m: Int, sr: Double, n: Int = 4,
                      seed: Long = 29L): Seq[EpsRow] = {
    val fed = setup.federation
    setup.replay
    (for (agg <- Seq(Agg.Count, Agg.SumMeasure)) yield {
      val qs = Datasets.qualifyingWorkload(fed, dims, m, n, agg,
        seed + (if (agg == Agg.Count) 0 else 1))
      val sps = epss.map(eps =>
        timeWorkload(setup, qs, sr, eps, seed * 100 + math.round(eps * 10)))
      epss.zip(sps).map { case (eps, sp) =>
        EpsRow(dataset, eps, aggName(agg),
          errWorkload(setup, qs, sr, eps, seed * 100 + math.round(eps * 10)), sp)
      }
    }).flatten
  }

  // ----------------------------------------------------------------------
  // Figure 8 (SMC vs per-provider DP noise)
  // ----------------------------------------------------------------------

  final case class SmcRow(queryId: Int, mode: String, noiseAbsMin: Double,
                          noiseAbsMax: Double, avgRelErr: Double, avgSpeedup: Double)

  /** SMC vs DP release (§6.5): 5 two-dimensional COUNT queries on Adult,
    * each repeated `iters` times with and without SMC; reports the realized
    * |noise| range (in-memory repetitions), error, and speed-up (Spark).
    */
  def smcVsDp(setup: FederationSetup, dims: Seq[DimSpec], iters: Int = 5,
              nQueries: Int = 5, sr: Double = 0.1, eps: Double = 1.0,
              seed: Long = 37L): Seq[SmcRow] = {
    val fed = setup.federation
    val mem = setup.inMemory(fed.cfg)
    val qs = Datasets.qualifyingWorkload(fed, dims, nQueries, 2, Agg.Count, seed)
    (for ((q, qi) <- qs.zipWithIndex; smc <- Seq(false, true)) yield {
      val exact = exactTimed(fed, q)
      val sp = (0 until 2).map(it =>
        fed.run(q, sr, eps, useSmc = smc, seed = seed + qi * 1000 + it,
          exactBaseline = Some(exact)).speedup).sum / 2
      val reps = (0 until iters).map(it =>
        mem.run(q, sr, eps, useSmc = smc, seed = seed + qi * 1000 + it * 10 + (if (smc) 1 else 0),
          exactBaseline = Some((exact._1, 0.0))))
      SmcRow(qi, if (smc) "SMC" else "DP",
        reps.map(r => math.abs(r.noise)).min, reps.map(r => math.abs(r.noise)).max,
        reps.map(_.relativeError).sum / iters, sp)
    })
  }

  // ----------------------------------------------------------------------
  // Figure 1 (row sharing vs result sharing in SMC)
  // ----------------------------------------------------------------------

  final case class RowShareRow(totalRows: Long, rowSharingMs: Double,
                               resultSharingMs: Double, ratio: Double)

  /** SMC cost simulation (§2, Figure 1): share rows vs share results for
    * random 2-dim range queries over Adult-like data at growing sizes.
    */
  def rowSharingSimulation(spark: SparkSession, sizes: Seq[Long], queriesPerSize: Int = 3,
                           seed: Long = 51L): Seq[RowShareRow] = {
    val rng = new Random(seed)
    val dims = Datasets.adultDims
    sizes.map { rows =>
      val raw = Datasets.adultRaw(spark, rows, seed).withColumn(
        Clustering.ProviderCol,
        least(lit(NProviders - 1), floor(rand(seed) * NProviders)).cast("int"))
      val collected = raw.collect()
      val parties = (0 until NProviders).map { pid =>
        val mine = collected.filter(_.getInt(dims.size) == pid)
        RowSharingSmc.LocalRows(
          dims.map(_.name).toArray,
          dims.indices.map(d => mine.map(_.getInt(d))).toArray,
          Array.fill(mine.length)(1L))
      }
      // unmeasured warm-up queries absorb JIT compilation of both paths
      val warmQ = Datasets.randomQuery(dims, 2, Agg.Count, rng)
      RowSharingSmc.evaluateRowSharing(parties, warmQ, NProviders, rng)
      RowSharingSmc.evaluateResultSharing(parties, warmQ, NProviders, rng)
      val times = (0 until queriesPerSize).map { _ =>
        val q = Datasets.randomQuery(dims, 2, Agg.Count, rng)
        val (a1, tRow) = RowSharingSmc.evaluateRowSharing(parties, q, NProviders, rng)
        val (a2, tRes) = RowSharingSmc.evaluateResultSharing(parties, q, NProviders, rng)
        require(math.abs(a1 - a2) < 1e-6, s"SMC paths disagree: $a1 vs $a2")
        (tRow, tRes)
      }
      val rowMs = times.map(_._1).sum / times.size
      val resMs = times.map(_._2).sum / times.size
      RowShareRow(rows, rowMs, resMs, rowMs / math.max(resMs, 1e-9))
    }
  }

  // ----------------------------------------------------------------------
  // Table 1 (NBC learning attack)
  // ----------------------------------------------------------------------

  final case class AttackRow(composition: String, agg: String, xi: Double,
                             accuracy: Double, perQueryEps: Double)

  /** Resilience to the NBC attack (§6.6, Table 1): train the classifier
    * through the private pipeline under each composition regime and measure
    * prediction accuracy; also returns a no-privacy control (`EXACT`) that
    * shows the attack genuinely works on unprotected answers.
    *
    * Runs on [[repro.core.InMemoryClusterEval]]: the attack issues
    * `nQueries` (≈3.9k) full protocol executions per cell, whose per-cluster
    * scans are replayed in memory (identical math — DESIGN.md §3).
    *
    * @return (per-cell attack accuracies, no-privacy control accuracy,
    *          majority-class baseline — what a constant predictor scores
    *          with zero queries; the information-free floor given the
    *          skewed SA marginal)
    */
  def attackAnalysis(spark: SparkSession, rows: Long, xis: Seq[Double], psi: Double = 1e-6,
                     sr: Double = 0.1, cfg: FedConfig = DefaultCfg,
                     seed: Long = 61L): (Seq[AttackRow], Double, Double) = {
    val dims = Datasets.attackQiDims :+ Datasets.attackSaDim
    val setup = Setup.build(spark, Datasets.attackRaw(spark, rows),
      dims.map(_.name), NProviders, clusterFrac = 0.01, cfg, Storage.Cached, seed = 44L)

    val attack = new NbcAttack(Datasets.attackSaDim, Datasets.attackQiDims)

    // ground truth: (QI assignment, SA value, #individuals) from the tensor
    val truth = setup.clustered
      .groupBy(dims.map(d => col(d.name)): _*)
      .agg(sum(col(Tensor.MeasureCol)).as("w"))
      .collect()
      .map { r =>
        val qi = Datasets.attackQiDims.zipWithIndex.map { case (d, i) => d.name -> r.getInt(i) }.toMap
        (qi, r.getInt(Datasets.attackQiDims.size), r.getLong(dims.size))
      }
      .toSeq

    // no-privacy control: exact answers, no sampling, no noise
    val exactModel = attack.train(q => setup.replay.exactTotal(q), Agg.Count)
    val controlAcc = attack.accuracy(exactModel, truth)

    // information-free floor: always predict the most frequent SA value
    val totalW = truth.map(_._3).sum.toDouble
    val majorityBaseline = truth.groupBy(_._2).values.map(_.map(_._3).sum).max / totalW

    val n = attack.nQueries
    val rows2 = for {
      (comp, budgetOf) <- Seq[(String, (Double) => Composition.Budget)](
        ("Sequential", xi => Composition.sequentialPerQuery(xi, psi, n)),
        ("Advanced", xi => Composition.advancedPerQuery(xi, psi, n)),
        ("Coalition", xi => Composition.coalitionPerQuery(xi, psi)))
      agg <- Seq(Agg.Count, Agg.SumMeasure)
      xi <- xis
    } yield {
      val b = budgetOf(xi)
      val fedQ = setup.inMemory(cfg.copy(delta = b.delta))
      var qIdx = 0
      val answer: RangeQuery => Double = { q =>
        qIdx += 1
        fedQ.run(q, sr, b.eps, useSmc = false,
          seed = seed + qIdx + math.round(xi * 7) + (if (agg == Agg.Count) 0 else 1),
          exactBaseline = Some((0.0, 0.0))).answer
      }
      val model = attack.train(answer, agg)
      AttackRow(comp, aggName(agg), xi, attack.accuracy(model, truth), b.eps)
    }
    (rows2, controlAcc, majorityBaseline)
  }

  // ----------------------------------------------------------------------
  // Formatting
  // ----------------------------------------------------------------------

  def fmt(rows: Seq[Product], header: Seq[String]): String = {
    val cells = rows.map(_.productIterator.map {
      case d: Double => f"$d%.4f"
      case x         => x.toString
    }.toSeq)
    val widths = header.indices.map(i => (header(i) +: cells.map(_(i))).map(_.length).max)
    def line(vals: Seq[String]) =
      vals.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: cells.map(line)).mkString("\n")
  }
}
