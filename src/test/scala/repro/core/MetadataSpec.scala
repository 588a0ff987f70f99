package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.data.Datasets
import repro.federation.{FedConfig, FederationSetup, Setup, Storage}

/** Algorithm 1 metadata: stored proportions and covering-set identification
  * verified against brute force over the clustered rows.
  */
class MetadataSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall
  private val dims = Datasets.adultDims.map(_.name)

  private lazy val meta0: ProviderMetadata = fed.metas.head

  /** provider-0 rows as (clusterId, dimName -> value). */
  private lazy val rows0: Seq[(Int, Map[String, Int])] =
    fed.clustered.filter(col(Clustering.ProviderCol) === meta0.providerId)
      .select((col(Clustering.ClusterCol) +: dims.map(col)): _*)
      .collect()
      .map(r => (r.getInt(0), dims.zipWithIndex.map { case (d, i) => d -> r.getInt(i + 1) }.toMap))
      .toSeq

  test("metadata covers every cluster of the provider exactly once") {
    val expected = rows0.map(_._1).distinct.sorted
    assert(meta0.clusters.map(_.clusterId) == expected.toVector)
  }

  test("per-cluster row counts match the data") {
    val counts = rows0.groupBy(_._1).view.mapValues(_.size.toLong).toMap
    for (c <- meta0.clusters) assert(c.nRows == counts(c.clusterId), s"cluster ${c.clusterId}")
  }

  test("vMin/vMax match the true per-cluster min/max on every dimension") {
    val byCluster = rows0.groupBy(_._1)
    for (c <- meta0.clusters; d <- dims) {
      val vs = byCluster(c.clusterId).map(_._2(d))
      assert(c.dims(d).vMin == vs.min, s"cluster ${c.clusterId} dim $d min")
      assert(c.dims(d).vMax == vs.max, s"cluster ${c.clusterId} dim $d max")
    }
  }

  test("stored R^{d>=}(v) equals brute-force suffix proportion at every stored value") {
    val byCluster = rows0.groupBy(_._1)
    for (c <- meta0.clusters.take(10); d <- dims) {
      val vs = byCluster(c.clusterId).map(_._2(d))
      val dm = c.dims(d)
      for (i <- dm.values.indices) {
        val v = dm.values(i)
        val expected = vs.count(_ >= v).toDouble / meta0.S
        assert(math.abs(dm.rGe(i) - expected) < 1e-12,
          s"cluster ${c.clusterId} dim $d value $v: ${dm.rGe(i)} vs $expected")
      }
    }
  }

  test("rGeAt interpolates the step function correctly at arbitrary probes") {
    val byCluster = rows0.groupBy(_._1)
    val probes = Seq(-5, 0, 1, 13, 27, 40, 55, 91, 200)
    for (c <- meta0.clusters.take(6); d <- dims; x <- probes) {
      val vs = byCluster(c.clusterId).map(_._2(d))
      val expected = vs.count(_ >= x).toDouble / meta0.S
      assert(math.abs(c.dims(d).rGeAt(x) - expected) < 1e-12,
        s"cluster ${c.clusterId} dim $d probe $x")
    }
  }

  test("single-dimension R^d is the exact in-range proportion") {
    val byCluster = rows0.groupBy(_._1)
    for (c <- meta0.clusters.take(8)) {
      val vs = byCluster(c.clusterId).map(_._2("age"))
      val expected = vs.count(v => v >= 25 && v <= 50).toDouble / meta0.S
      assert(math.abs(c.dims("age").rRange(25, 50) - expected) < 1e-12)
    }
  }

  test("covering set equals brute-force Eq 2 on random queries") {
    val rng = new scala.util.Random(5)
    val byCluster = rows0.groupBy(_._1)
    for (_ <- 1 to 20) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(3), Agg.Count, rng)
      val got = meta0.covering(q, rFloorFrac = 0.0)._1.map(_.clusterId).toSet
      val boxed = byCluster.keySet.filter { cid =>
        q.ranges.forall { r =>
          val vs = byCluster(cid).map(_._2(r.dim))
          vs.min <= r.ub && vs.max >= r.lb
        }
      }
      // a box that meets a range holding none of the cluster's values has
      // R^d = 0 on that dimension, and R = 0 clusters are dropped
      val expected = boxed.filter(cid =>
        q.ranges.forall(r => byCluster(cid).exists { case (_, m) => m(r.dim) >= r.lb && m(r.dim) <= r.ub }))
      assert(got.subsetOf(boxed), s"query $q")
      assert(got == expected, s"query $q")
    }
  }

  test("covering set is a superset of clusters with matching rows") {
    val rng = new scala.util.Random(9)
    val byCluster = rows0.groupBy(_._1)
    for (_ <- 1 to 20) {
      val q = Datasets.randomQuery(Datasets.adultDims, 2, Agg.Count, rng)
      val covering = meta0.covering(q, rFloorFrac = 0.0)._1.map(_.clusterId).toSet
      val withRows = byCluster.keySet.filter(cid =>
        byCluster(cid).exists { case (_, m) =>
          q.ranges.forall(r => m(r.dim) >= r.lb && m(r.dim) <= r.ub)
        })
      assert(withRows.subsetOf(covering), s"query $q misses clusters with matching rows")
    }
  }

  test("approximated proportions R lie in [0, 1]") {
    val rng = new scala.util.Random(13)
    for (_ <- 1 to 30) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4), Agg.Count, rng)
      val (cq, rs) = meta0.covering(q, rFloorFrac = 0.0)
      assert(cq.size == rs.size)
      assert(rs.forall(r => r >= 0.0 && r <= 1.0 + 1e-9), s"query $q: $rs")
    }
  }

  test("one-dimension proportion is exact (independence assumption is vacuous)") {
    val byCluster = rows0.groupBy(_._1)
    val q = RangeQuery(Agg.Count, Seq(DimRange("hours", 20, 60)))
    val (cq, rs) = meta0.covering(q, rFloorFrac = 0.0)
    for ((c, r) <- cq.zip(rs).take(10)) {
      val expected = byCluster(c.clusterId)
        .count { case (_, m) => m("hours") >= 20 && m("hours") <= 60 }.toDouble / meta0.S
      assert(math.abs(r - expected) < 1e-12)
    }
  }

  test("sampling probabilities sum to 1 and respect proportionality") {
    val rs = Vector(0.5, 0.25, 0.25)
    val ps = meta0.samplingProbabilities(rs)
    assert(math.abs(ps.sum - 1.0) < 1e-12)
    assert(math.abs(ps(0) - 0.5) < 1e-12 && math.abs(ps(1) - 0.25) < 1e-12)
  }

  test("zero proportions fall back to a uniform distribution") {
    val ps = meta0.samplingProbabilities(Vector(0.0, 0.0, 0.0, 0.0))
    assert(ps == Vector.fill(4)(0.25))
  }

  test("intersects is a correct interval-overlap test") {
    val dm = DimMeta(Array(5, 9, 12), Array(1.0, 0.5, 0.2))
    assert(dm.intersects(1, 5) && dm.intersects(12, 20) && dm.intersects(6, 8))
    assert(!dm.intersects(1, 4) && !dm.intersects(13, 20))
  }

  test("rRange clamps to zero when the band is empty") {
    val dm = DimMeta(Array(5, 9, 12), Array(1.0, 0.5, 0.2))
    assert(dm.rRange(6, 8) == 0.5 - 0.5) // values 9,12 >= 6 minus >= 9: band (6..8) holds none
    assert(dm.rRange(13, 20) == 0.0)
  }

  test("rRange with an open upper bound Int.MaxValue counts every value from lb") {
    val dm = DimMeta(Array(1, 2, 3, 4), Array(1.0, 0.75, 0.5, 0.25))
    assert(dm.rRange(2, Int.MaxValue) == 0.75)
    assert(dm.rRange(2, Int.MaxValue) == dm.rRange(2, 100))
    assert(dm.rRange(Int.MinValue, Int.MaxValue) == 1.0)
    assert(dm.rRange(Int.MaxValue, Int.MaxValue) == 0.0)
  }

  /** Every provider's metadata compared, element by element, with the
    * distinct values and suffix proportions counted from the clustered rows.
    */
  private def assertMetadataMatchesRows(setup: FederationSetup): Unit = {
    val rows = setup.clustered
      .select((Seq(Clustering.ProviderCol, Clustering.ClusterCol) ++ dims).map(col): _*)
      .collect()
      .map(r => (r.getInt(0), r.getInt(1), dims.indices.map(i => r.getInt(2 + i)).toArray))
    val byProvider = rows.groupBy(_._1)
    assert(setup.metas.map(_.providerId) == byProvider.keys.toSeq.sorted)
    for (m <- setup.metas) {
      val byCluster = byProvider(m.providerId).groupBy(_._2)
      assert(m.clusters.map(_.clusterId) == byCluster.keys.toVector.sorted,
        s"provider ${m.providerId}")
      for (c <- m.clusters) {
        val rs = byCluster(c.clusterId)
        val where = s"provider ${m.providerId} cluster ${c.clusterId}"
        assert(c.nRows == rs.length.toLong, where)
        for ((d, i) <- dims.zipWithIndex) {
          val vs = rs.map(_._3(i))
          val values = vs.distinct.sorted
          val rGe = values.map(v => vs.count(_ >= v).toDouble / m.S)
          assert(c.dims(d).values.sameElements(values), s"$where dim $d values")
          assert(c.dims(d).rGe.sameElements(rGe), s"$where dim $d rGe")
        }
      }
    }
  }

  test("single-pass metadata equals brute force for every provider (cached store)") {
    assertMetadataMatchesRows(fed)
  }

  test("single-pass metadata equals brute force for every provider (parquet store)") {
    val dir = java.nio.file.Files.createTempDirectory("repro-meta-test-").toString
    assertMetadataMatchesRows(Setup.build(spark, Datasets.adultRaw(spark, 5000, seed = 7L),
      dims, nProviders = 2, clusterFrac = 0.02, FedConfig(nMin = 4),
      Storage.Parquet(Some(dir)), seed = 9L))
  }

  /** Eq 2 and Eq 1 written cluster by cluster from `clusters`: the box
    * test, the product of `rRange`, the `R > 0` drop and the floor.
    */
  private def referenceCovering(m: ProviderMetadata, q: RangeQuery,
                                rFloorFrac: Double): (Vector[Int], Vector[Double]) = {
    val positive = m.clusters
      .filter(c => q.ranges.forall(r => c.dims(r.dim).intersects(r.lb, r.ub)))
      .map(c => c.clusterId -> q.ranges.map(r => c.dims(r.dim).rRange(r.lb, r.ub)).product)
      .filter(_._2 > 0.0)
    if (positive.isEmpty) return (Vector.empty, Vector.empty)
    val theta = rFloorFrac * (positive.map(_._2).sum / positive.size)
    val kept = positive.filter(_._2 >= theta)
    (kept.map(_._1), kept.map(_._2))
  }

  test("array covering equals the cluster-by-cluster reference on every provider") {
    val rng = new scala.util.Random(17)
    def bound(spec: repro.data.DimSpec): DimRange = {
      val span = spec.hi - spec.lo
      def in = spec.lo + rng.nextInt(span + 1)
      rng.nextInt(7) match {
        case 0 => val v = in; DimRange(spec.name, v, v) // point range
        case 1 => DimRange(spec.name, spec.hi + 1 + rng.nextInt(5), spec.hi + 10) // above the domain
        case 2 => DimRange(spec.name, spec.lo - 10, spec.lo - 1 - rng.nextInt(5)) // below it
        case 3 => DimRange(spec.name, in, Int.MaxValue)
        case 4 => DimRange(spec.name, Int.MinValue, in)
        case 5 => DimRange(spec.name, Int.MinValue, Int.MaxValue)
        case _ => val a = in; val b = in; DimRange(spec.name, math.min(a, b), math.max(a, b))
      }
    }
    var nonEmpty = 0
    for (_ <- 1 to 300; m <- fed.metas; floor <- Seq(0.0, 0.02, 0.2)) {
      val specs = rng.shuffle(Datasets.adultDims).take(1 + rng.nextInt(4))
      val q = RangeQuery(Agg.Count, specs.map(bound))
      val (cq, rs) = m.covering(q, floor)
      val (ids, expected) = referenceCovering(m, q, floor)
      assert(cq.map(_.clusterId) == ids, s"provider ${m.providerId} floor $floor query $q")
      assert(rs == expected, s"provider ${m.providerId} floor $floor query $q")
      if (cq.nonEmpty) nonEmpty += 1
    }
    assert(nonEmpty > 300, s"only $nonEmpty of 3600 coverings were non-empty")
  }
}
