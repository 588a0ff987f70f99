package repro.perfbench

import scala.collection.mutable
import scala.util.Random

import repro.core.{ClusterEval, RangeQuery}
import repro.dp.Laplace
import repro.federation.{Allocation, Federation}
import repro.smc.SecretSharing

/** Per-query span timings: milliseconds per span name, in first-seen order. */
final class Spans {
  val ms: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def apply[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body
    finally ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
  }
}

/** What one traced query did, beside its answer. */
final case class StepCounts(coveringClusters: Int, sampledClusters: Int,
                            exactPathProviders: Int, providers: Int, emDraws: Int)

/** `Federation.run` taken apart at its layer boundaries, so each public
  * call gets its own span. It makes the same calls in the same order, and
  * so draws the same random numbers, as `Federation.run` for the same seed;
  * the traced run checks that the answers are equal. The one addition is a
  * standalone `DataProvider.covering` call per provider, timing the step
  * that `summary` and `plan` each repeat internally.
  */
object Stepwise {
  def run(fed: Federation, eval: ClusterEval, q: RangeQuery, sr: Double, eps: Double,
          useSmc: Boolean, seed: Long, spans: Spans,
          beforeScan: () => Unit = () => ()): (Double, StepCounts) = {
    val cfg = fed.cfg
    val rng = new Random(seed)
    val lap = new Laplace(rng)
    val epsO = cfg.hp1 * eps
    val epsS = cfg.hp2 * eps
    val epsE = cfg.hp3 * eps

    spans("federation.covering") { fed.providers.foreach(_.covering(q)) }
    val summaries = spans("federation.summary") { fed.providers.map(_.summary(q, epsO, lap)) }
    val alloc = spans("federation.allocate") { Allocation.allocate(summaries, sr) }
    val plans = spans("federation.plan") {
      fed.providers.map(p => p.plan(q, alloc(p.providerId), epsS, rng))
    }
    val sampled = plans.map(p => p.providerId -> (p.clusterIds: Seq[Int])).toMap
    beforeScan()
    val qcAll = spans("core.scan") { eval.perCluster(sampled, q) }
    val answers = spans("federation.finish") {
      fed.providers.zip(plans).map { case (p, pl) =>
        val qc = pl.clusterIds.iterator
          .map(c => c -> qcAll.getOrElse((pl.providerId, c), 0.0)).toMap
        p.finish(q, pl, qc, epsE, cfg.delta)
      }
    }
    val answer =
      if (useSmc) {
        val (sum, maxNum) = spans("smc.release") {
          (SecretSharing.secureSum(answers.map(_.estimate), rng),
            SecretSharing.secureMax(answers.map(_.sensNumerator), rng))
        }
        sum + spans("dp.release") { if (epsE.isPosInfinity) 0.0 else lap.noise(maxNum / epsE) }
      } else {
        spans("dp.release") {
          answers.map { a =>
            if (epsE.isPosInfinity) a.estimate else a.estimate + lap.noise(a.sensNumerator / epsE)
          }.sum
        }
      }
    val counts = StepCounts(
      coveringClusters = plans.map(_.nQ).sum,
      sampledClusters = plans.map(_.clusterIds.size).sum,
      exactPathProviders = plans.count(_.exactPath),
      providers = plans.size,
      emDraws = plans.filterNot(_.exactPath).map(_.clusterIds.size).sum)
    (answer, counts)
  }
}
