package repro.perfbench

import java.nio.file.Path

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.attack.NbcAttack
import repro.core.{Agg, ClusterEval, InMemoryClusterEval, RangeQuery}
import repro.data.{Datasets, DimSpec}
import repro.federation._
import repro.harness.Tables

/** One private query as the analyst sends it; `query` indexes the run's
  * pool of distinct queries.
  */
final case class Item(query: Int, sr: Double, useSmc: Boolean, seed: Long)

/** The generated inputs of one run: distinct queries, the order in which
  * both loops visit them, and the sequence of private queries over them,
  * each with its own protocol seed.
  */
final case class Inputs(queries: Vector[RangeQuery], order: Vector[Int], items: Vector[Item])

/** The driver-side replay of a federation's clustered tensor. */
final case class Replay(fed: Federation, eval: InMemoryClusterEval, buildMs: Double)

object Replay {
  /** The construction of `FederationSetup.inMemory`, keeping the evaluator
    * so the benchmark can call `perCluster` and `exactTotal` on it.
    */
  def of(setup: FederationSetup): Replay = {
    val t0 = System.nanoTime()
    val mem = InMemoryClusterEval.fromDataFrame(setup.clustered, setup.dims)
    val cfg = setup.federation.cfg
    val fed = new Federation(
      setup.metas.map(new DataProvider(_, mem, cfg.nMin, cfg.rFloorFrac)), mem, cfg)
    Replay(fed, mem, (System.nanoTime() - t0) / 1e6)
  }
}

/** A federation after offline setup. The timed loop sends private queries
  * to `fed`, which evaluates clusters through `eval`; `replay` is present
  * when the replay is part of the workload's setup.
  */
final case class Built(setup: FederationSetup, fed: Federation, eval: ClusterEval,
                       replay: Option[Replay])

sealed trait Workload {
  def name: String

  /** Offline setup, from raw rows to a ready federation: what `setup_s` times. */
  def build(spark: SparkSession, storeDir: Path): Built

  /** The distinct queries, a function of the federation's metadata only,
    * and the fixed order in which the loops visit them. With an order drawn
    * per run seed, each run timed another subset of the queries and
    * accuracy was taken over another subset.
    */
  def pool(b: Built): (Vector[RangeQuery], Vector[Int])

  /** The (sampling rate, SMC release) settings the private queries turn
    * through.
    */
  def settings: Seq[(Double, Boolean)]

  /** The run's inputs: the pool, with every protocol seed drawn from `seed`. */
  final def inputs(b: Built, seed: Long): Inputs = {
    val (qs, order) = pool(b)
    Workloads.inputs(qs, order, settings, new Random(seed))
  }

  /** Warm-up inputs: the pool walked from the far end of its order, which
    * the timed window does not reach, so that no timed query finds Spark's
    * generated code already cached by the warm-up.
    */
  final def warmUpInputs(b: Built): Inputs = {
    val (qs, order) = pool(b)
    Workloads.inputs(qs, order.reverse, settings, new Random(Workloads.WarmUpSeed))
  }

  /** Share of the timed window given to private queries; the rest times the
    * exact baseline.
    */
  def privateShare: Double

  /** Untimed warm-up before the window: long enough for the JIT to finish
    * compiling the query path, which the driver-side protocol needs more
    * than the Spark scan.
    */
  def warmUpSec: Double

  /** Private runs behind `rel_err_*`: the first items of the sequence,
    * replayed in memory. Fixed, so accuracy does not depend on speed.
    */
  def accuracyRuns: Int

  val eps: Double = 1.0
}

object Workloads {
  val all: Seq[Workload] = Seq(AmazonScan, AttackReplay)

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))

  /** Items generated per run; the timed loop wraps around past them. */
  private[perfbench] val MaxItems = 1 << 17

  /** Seed of the fixed query orders. */
  private[perfbench] val OrderSeed = 0L
  /** Seed of the warm-up's protocol seeds. */
  private[perfbench] val WarmUpSeed = 0L

  /** Items walk the queries in `order`, one ask per query per pass, the
    * settings turning from item to item and shifting by one from pass to
    * pass, so every run sees them in equal shares and each query meets them
    * all; protocol seeds come from `rng`. A query asked again at once, at
    * the next setting, reused Spark's generated code and took ~25 % less
    * time, which split latency into two modes with the median between them.
    */
  private[perfbench] def inputs(queries: Vector[RangeQuery], order: Vector[Int],
                               settings: Seq[(Double, Boolean)], rng: Random): Inputs =
    Inputs(queries, order, Vector.tabulate(MaxItems) { i =>
      val (sr, smc) = settings((i + i / order.size) % settings.size)
      Item(order(i % order.size), sr, smc, rng.nextLong())
    })

  /** `perCombo` qualifying queries for every `(n, agg)` combination. */
  private[perfbench] def qualifying(fed: Federation, dims: Seq[DimSpec], ns: Range,
                                    perCombo: Int, rng: Random): Vector[RangeQuery] =
    (for (n <- ns; agg <- Seq(Agg.Count, Agg.SumMeasure))
      yield Datasets.qualifyingWorkload(fed, dims, perCombo, n, agg, rng.nextLong())).flatten.toVector
}

/** AmazonReview-like federation stored as `(provider_id, cluster_id)`
  * partitioned parquet: query time is the pruned Spark scan. The query pool
  * and its order are fixed; the seed draws the protocol seeds. Queries are
  * asked at both sampling rates with DP and with SMC release, in turn.
  */
object AmazonScan extends Workload {
  val name = "amazon-scan"
  val Rows = 50000L
  val ClusterFrac = 0.05
  val PerCombo = 32
  /** Seed of the query pool: with a pool drawn per run seed, `rel_err_p90`
    * moved by a third between seeds with the pool's share of small answers.
    */
  val PoolSeed = 0L
  val privateShare = 0.6
  val warmUpSec = 1.5
  val accuracyRuns = 2000

  def build(spark: SparkSession, storeDir: Path): Built = {
    // Tables.setupAmazon with a larger S
    val setup = Setup.build(spark, Datasets.amazonRaw(spark, Rows), Datasets.amazonDims.map(_.name),
      Tables.NProviders, ClusterFrac, Tables.DefaultCfg, Storage.Parquet(Some(storeDir.toString)),
      seed = 43L, skewProviders = true)
    Built(setup, setup.federation, setup.eval, None)
  }

  val settings = for (smc <- Seq(false, true); sr <- Seq(0.05, 0.20)) yield (sr, smc)

  def pool(b: Built): (Vector[RangeQuery], Vector[Int]) = {
    val qs = Workloads.qualifying(b.fed, Datasets.amazonDims, 2 to 5, PerCombo, new Random(PoolSeed))
    (qs, new Random(Workloads.OrderSeed).shuffle(qs.indices.toVector))
  }
}

/** The §6.6 attack dataset replayed in memory with the NBC training
  * queries, COUNT and SUM, in a fixed shuffled order; the seed draws the
  * protocol seeds. In the attack's plan order the cost of a query moved
  * 3x along the plan, so a run's figures depended on how far it got.
  * Narrow point ranges on a tiny tensor, so driver-side protocol work
  * dominates.
  */
object AttackReplay extends Workload {
  val name = "attack-replay"
  val Rows = 40000L
  val privateShare = 0.8
  val warmUpSec = 2.0
  val accuracyRuns = 4000

  def build(spark: SparkSession, storeDir: Path): Built = {
    val dims = Datasets.attackQiDims :+ Datasets.attackSaDim
    // the federation Tables.attackAnalysis builds for Table 1
    val setup = Setup.build(spark, Datasets.attackRaw(spark, Rows), dims.map(_.name),
      Tables.NProviders, clusterFrac = 0.01, Tables.DefaultCfg, Storage.Cached, seed = 44L)
    val r = Replay.of(setup)
    Built(setup, r.fed, r.eval, Some(r))
  }

  val settings = Seq((0.10, false))

  def pool(b: Built): (Vector[RangeQuery], Vector[Int]) = {
    val attack = new NbcAttack(Datasets.attackSaDim, Datasets.attackQiDims)
    val qs = (attack.trainingQueries(Agg.Count) ++ attack.trainingQueries(Agg.SumMeasure)).toVector
    (qs, new Random(Workloads.OrderSeed).shuffle(qs.indices.toVector))
  }
}
