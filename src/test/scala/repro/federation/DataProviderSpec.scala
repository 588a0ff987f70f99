package repro.federation

import scala.util.Random

import repro.SparkSpec
import repro.core.{Agg, DimRange, RangeQuery}
import repro.dp.Laplace

/** Data-provider protocol steps on a controlled uniform fixture: summaries,
  * the N^min gate, EM sampling and estimation exactness in the noiseless
  * limit.
  */
class DataProviderSpec extends SparkSpec {

  /** One provider, 200 raw rows over a single dimension `x` with values
    * 0..99 twice ⇒ tensor of 100 rows (measure 2 each), S = 10 ⇒ 10 clusters
    * of 10 tensor rows — every cluster identical under a full-range query.
    */
  private lazy val uniform: FederationSetup = {
    import spark.implicits._
    val raw = spark.range(200).map(i => (i % 100).toInt).toDF("x")
    Setup.build(spark, raw, Seq("x"), nProviders = 1, clusterFrac = 0.1,
      FedConfig(nMin = 4), Storage.Cached, seed = 1L)
  }

  private def provider: DataProvider = uniform.federation.providers.head
  private val fullRange = RangeQuery(Agg.Count, Seq(DimRange("x", 0, 99)))
  private val inf = Double.PositiveInfinity

  test("fixture sanity: 10 clusters of 10 rows each") {
    assert(uniform.S == 10)
    assert(provider.meta.clusters.size == 10)
    assert(provider.meta.clusters.forall(_.nRows == 10))
  }

  test("noiseless summary reports the true N^Q and Avg(R)") {
    val s = provider.summary(fullRange, epsO = inf, new Laplace(new Random(1)))
    assert(s.noisyN == 10.0)
    // every cluster fully matches: R = 10/10 = 1
    assert(math.abs(s.noisyAvgR - 1.0) < 1e-12)
  }

  test("noisy summary deviates from the truth but stays near it for large eps") {
    val s = provider.summary(fullRange, epsO = 100.0, new Laplace(new Random(2)))
    assert(math.abs(s.noisyN - 10.0) < 2.0)
    assert(math.abs(s.noisyAvgR - 1.0) < 1.0)
  }

  test("full sample, noiseless: Hansen-Hurwitz estimate is exact (COUNT)") {
    val a = provider.answer(fullRange, s = 10, epsS = inf, epsE = inf, delta = 1e-3,
      new Random(3))
    assert(!a.exactPath)
    assert(a.scannedClusters == 10 && a.coveringClusters == 10)
    assert(math.abs(a.estimate - 100.0) < 1e-9) // 100 tensor rows
  }

  test("full sample, noiseless: exact for SUM(measure)") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("x", 0, 99)))
    val a = provider.answer(q, s = 10, epsS = inf, epsE = inf, delta = 1e-3, new Random(4))
    assert(math.abs(a.estimate - 200.0) < 1e-9) // 200 raw individuals
  }

  test("uniform clusters: any sample size is exact in the noiseless limit") {
    // all clusters identical ⇒ (N/s)·s·Q(C) = N·Q(C) regardless of s
    for (s <- Seq(2, 5, 8)) {
      val a = provider.answer(fullRange, s, epsS = inf, epsE = inf, delta = 1e-3,
        new Random(5))
      assert(math.abs(a.estimate - 100.0) < 1e-9, s"s=$s")
      assert(a.scannedClusters == s)
    }
  }

  test("N^Q below N^min takes the exact path") {
    // x in [0,5] touches only cluster 0 (values 0..9); nMin = 4 > 1
    val q = RangeQuery(Agg.Count, Seq(DimRange("x", 0, 5)))
    val a = provider.answer(q, s = 1, epsS = inf, epsE = inf, delta = 1e-3, new Random(6))
    assert(a.exactPath)
    assert(a.estimate == 6.0) // 6 tensor rows (values 0..5)
    assert(a.sensNumerator == 1.0)
  }

  test("exact path answer equals the provider-local plain scan") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("x", 10, 25)))
    val (covering, _) = provider.covering(q)
    assume(covering.size < provider.nMin)
    val a = provider.answer(q, s = 1, epsS = inf, epsE = inf, delta = 1e-3, new Random(7))
    assert(a.exactPath)
    assert(a.estimate == 32.0) // 16 values × measure 2
  }

  test("approximation path reports a positive smooth-sensitivity numerator") {
    val a = provider.answer(fullRange, s = 4, epsS = inf, epsE = 0.8, delta = 1e-3,
      new Random(8))
    assert(!a.exactPath && a.sensNumerator > 0)
  }

  test("requested sample size is clamped to N^Q") {
    val a = provider.answer(fullRange, s = 50, epsS = inf, epsE = inf, delta = 1e-3,
      new Random(9))
    assert(a.scannedClusters == 10)
  }

  test("sample size floor of 1 is enforced") {
    val a = provider.answer(fullRange, s = 0, epsS = inf, epsE = inf, delta = 1e-3,
      new Random(10))
    assert(a.scannedClusters == 1)
  }

  test("covering proportions feed sampling probabilities that sum to 1") {
    val (cq, rs) = provider.covering(fullRange)
    val ps = provider.meta.samplingProbabilities(rs)
    assert(cq.size == 10)
    assert(math.abs(ps.sum - 1.0) < 1e-12)
  }

  test("an open upper bound Int.MaxValue covers like the domain maximum") {
    for (lb <- Seq(0, 37, 99)) {
      val open = provider.covering(RangeQuery(Agg.Count, Seq(DimRange("x", lb, Int.MaxValue))))
      val closed = provider.covering(RangeQuery(Agg.Count, Seq(DimRange("x", lb, 99))))
      assert(open._1.nonEmpty, s"lb=$lb")
      assert(open._1.map(_.clusterId) == closed._1.map(_.clusterId), s"lb=$lb")
      assert(open._2 == closed._2, s"lb=$lb")
    }
  }
}
