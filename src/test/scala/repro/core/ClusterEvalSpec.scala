package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.data.Datasets

/** Physical per-cluster evaluation: Spark and in-memory implementations
  * agree with each other, with brute force, and with the DuckDB oracle.
  */
class ClusterEvalSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall
  private lazy val sparkEval = new SparkClusterEval(fed.clustered)
  private lazy val memEval = InMemoryClusterEval.fromDataFrame(fed.clustered, fed.dims)

  private val q2 = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 50), DimRange("edu", 3, 12)))
  private val qSum = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 25, 70)))

  test("exactTotal matches the DuckDB oracle (COUNT)") {
    val got = fed.clustered.filter(q2.predicate).agg(q2.aggregate().as("answer"))
    Oracle.assertEquivalent(got, q2.oracleSql("t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(q2) == got.head.getDouble(0))
  }

  test("exactTotal matches the DuckDB oracle (SUM)") {
    val got = fed.clustered.filter(qSum.predicate).agg(qSum.aggregate().as("answer"))
    Oracle.assertEquivalent(got, qSum.oracleSql("t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(qSum) == got.head.getDouble(0))
  }

  test("Spark and in-memory exactTotal agree on random queries") {
    val rng = new scala.util.Random(3)
    for (_ <- 1 to 10) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      assert(sparkEval.exactTotal(q) == memEval.exactTotal(q), s"query $q")
    }
  }

  test("exactLocal sums to exactTotal across providers") {
    val ids = fed.metas.map(_.providerId)
    val total = ids.map(sparkEval.exactLocal(_, q2)).sum
    assert(total == sparkEval.exactTotal(q2))
    assert(ids.map(memEval.exactLocal(_, q2)).sum == memEval.exactTotal(q2))
  }

  test("perCluster agrees between Spark and in-memory evaluation") {
    val sampled = Map(0 -> Seq(0, 1, 2, 5), 1 -> Seq(0, 3))
    assert(sparkEval.perCluster(sampled, q2) == memEval.perCluster(sampled, q2))
    assert(sparkEval.perCluster(sampled, qSum) == memEval.perCluster(sampled, qSum))
  }

  test("perCluster matches brute-force per-cluster filtering") {
    val sampled = Map(0 -> Seq(1, 4), 2 -> Seq(0, 2))
    val got = sparkEval.perCluster(sampled, q2)
    for ((p, cs) <- sampled; c <- cs) {
      val expected = fed.clustered
        .filter(col(Clustering.ProviderCol) === p && col(Clustering.ClusterCol) === c && q2.predicate)
        .count().toDouble
      assert(got((p, c)) == expected, s"provider $p cluster $c")
    }
  }

  test("perCluster reports 0 for sampled clusters with no matching rows") {
    // a query matching nothing: age below the domain
    val qNone = RangeQuery(Agg.Count, Seq(DimRange("age", 1, 5)))
    val got = sparkEval.perCluster(Map(0 -> Seq(0, 1)), qNone)
    assert(got == Map((0, 0) -> 0.0, (0, 1) -> 0.0))
  }

  test("perCluster result keys exactly mirror the request") {
    val sampled = Map(0 -> Seq(0, 7), 1 -> Seq(2), 3 -> Seq(1, 2, 3))
    val got = memEval.perCluster(sampled, q2)
    val expectedKeys = for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)
    assert(got.keySet == expectedKeys.toSet)
  }

  test("empty sample yields an empty result") {
    assert(sparkEval.perCluster(Map.empty, q2).isEmpty)
    assert(sparkEval.perCluster(Map(0 -> Seq.empty), q2).isEmpty)
  }

  test("summing perCluster over all covering clusters reproduces exactLocal") {
    val meta = fed.metas.head
    val covering = meta.covering(q2, rFloorFrac = 0.0)._1.map(_.clusterId)
    val total = memEval.perCluster(Map(meta.providerId -> covering), q2).values.sum
    assert(total == memEval.exactLocal(meta.providerId, q2))
  }

  test("in-memory replay built from shuffled rows agrees with Spark on random queries") {
    val shuffled = InMemoryClusterEval.fromDataFrame(fed.clustered.orderBy(rand(7)), fed.dims)
    val rng = new scala.util.Random(5)
    val byProvider = fed.metas.map(m => m.providerId -> m.clusters.map(_.clusterId)).toMap
    for (i <- 1 to 8) {
      val agg = if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure
      // every other query is narrow on the leading dimension, so the
      // min/max skip drops most blocks and keeps the boundary ones
      val q =
        if (i % 2 == 0) Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4), agg, rng)
        else {
          val lb = 17 + rng.nextInt(70)
          RangeQuery(agg, Seq(DimRange("age", lb, lb + rng.nextInt(4)), DimRange("edu", 2, 14)))
        }
      val sampled = byProvider.map { case (p, cs) => p -> rng.shuffle(cs).take(1 + rng.nextInt(6)) }
      assert(shuffled.perCluster(sampled, q) == sparkEval.perCluster(sampled, q), s"query $q")
      assert(shuffled.exactTotal(q) == sparkEval.exactTotal(q), s"query $q")
      for (p <- byProvider.keys)
        assert(shuffled.exactLocal(p, q) == sparkEval.exactLocal(p, q), s"provider $p query $q")
    }
  }

  test("in-memory perCluster reports 0 for a sampled cluster id absent from the store") {
    val absent = fed.metas.head.clusters.map(_.clusterId).max + 1000
    val p = fed.metas.head.providerId
    val got = memEval.perCluster(Map(p -> Seq(0, absent)), q2)
    assert(got((p, absent)) == 0.0)
    assert(got((p, 0)) == sparkEval.perCluster(Map(p -> Seq(0)), q2)((p, 0)))
  }

  test("in-memory evaluation reports 0 for an unknown provider id") {
    val unknown = fed.metas.map(_.providerId).max + 1
    assert(memEval.perCluster(Map(unknown -> Seq(0, 1)), q2) ==
      Map((unknown, 0) -> 0.0, (unknown, 1) -> 0.0))
    assert(memEval.exactLocal(unknown, q2) == 0.0)
    assert(memEval.exactLocal(-1, q2) == 0.0)
  }

  test("in-memory evaluation of a query missing every cluster's min/max box is 0") {
    val qMiss = RangeQuery(Agg.SumMeasure, Seq(DimRange("edu", 3, 12), DimRange("age", 200, 300)))
    assert(sparkEval.exactTotal(qMiss) == 0.0)
    assert(memEval.exactTotal(qMiss) == 0.0)
    for (m <- fed.metas) {
      assert(memEval.exactLocal(m.providerId, qMiss) == 0.0)
      val got = memEval.perCluster(Map(m.providerId -> m.clusters.map(_.clusterId)), qMiss)
      assert(got.size == m.clusters.size && got.values.forall(_ == 0.0))
    }
  }
}
