package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Per-cluster, per-dimension metadata entry (Algorithm 1, `datas_meta`).
  *
  * `values` holds the distinct values of the dimension in this cluster in
  * ascending order; `rGe(i)` is the stored suffix proportion
  * `R^{d≥}(values(i)) = |rows with d ≥ values(i)| / S`.
  */
final case class DimMeta(values: Array[Int], rGe: Array[Double]) {
  require(values.length == rGe.length && values.nonEmpty)

  /** Minimum / maximum value of the dimension in the cluster
    * (Algorithm 1 lines 10–11, `Clusters_metas`).
    */
  def vMin: Int = values.head
  def vMax: Int = values.last

  /** `R^{d≥}(x)` for an arbitrary `x`: the suffix proportion is a
    * non-increasing step function whose value at `x` equals the stored value
    * at the smallest distinct value ≥ `x` (0 above the maximum).
    */
  def rGeAt(x: Int): Double = {
    var lo = 0; var hi = values.length // first index with values(idx) >= x
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (values(mid) >= x) hi = mid else lo = mid + 1
    }
    if (lo == values.length) 0.0 else rGe(lo)
  }

  /** Sub-proportion `R^d` of the cluster's rows with value in `[lb, ub]`
    * (paper §5.2: `R^d = R^{d≥}(lb) − R^{d≥}(ub⁺)` on a discrete domain).
    * Nothing lies above `Int.MaxValue`, so there `R^{d≥}(ub⁺)` is 0 rather
    * than `rGeAt` of the overflowed `ub + 1`.
    */
  def rRange(lb: Int, ub: Int): Double = {
    val above = if (ub == Int.MaxValue) 0.0 else rGeAt(ub + 1)
    math.max(0.0, rGeAt(lb) - above)
  }

  /** Whether `[vMin, vMax] ∩ [lb, ub] ≠ ∅` (Eq 2 covering test; the
    * covering loop makes the same test on [[ProviderMetadata]]'s columns).
    */
  def intersects(lb: Int, ub: Int): Boolean = vMin <= ub && vMax >= lb
}

/** Metadata of one cluster: row count plus per-dimension [[DimMeta]]. */
final case class ClusterMeta(clusterId: Int, nRows: Long, dims: Map[String, DimMeta])

/** All of one data provider's offline metadata (Algorithm 1 output). */
final case class ProviderMetadata(providerId: Int, S: Int, dimNames: Seq[String],
                                  clusters: Vector[ClusterMeta]) {

  // The covering loop's columnar view: per dimension index, one entry per
  // cluster position, so the loop reads primitive arrays instead of a
  // per-cluster `Map` (the zone-map layout of the data applied to the
  // metadata itself).
  private val dimIndex: Map[String, Int] = dimNames.zipWithIndex.toMap
  private val colMeta: Array[Array[DimMeta]] =
    dimNames.map(d => clusters.iterator.map(_.dims(d)).toArray).toArray
  private val colMin: Array[Array[Int]] = colMeta.map(_.map(_.vMin))
  private val colMax: Array[Array[Int]] = colMeta.map(_.map(_.vMax))

  /** `C^Q` and the approximated proportions `R̂` (Eq 2 and Eq 1), from
    * metadata only, in cluster order: the clusters whose min/max box meets
    * every query range, with `R = ∏_{d∈D^Q} R^d` multiplied in query-range
    * order (the dimension-independence assumption), keeping `R > 0` and
    * then `R ≥ rFloorFrac ×` the mean kept `R` (summed in cluster order).
    * [[repro.federation.DataProvider.covering]] gives the reasons for the
    * two refinements.
    */
  def covering(q: RangeQuery, rFloorFrac: Double): (Vector[ClusterMeta], Vector[Double]) = {
    val nr = q.ranges.size
    val ds = new Array[Int](nr); val lbs = new Array[Int](nr); val ubs = new Array[Int](nr)
    var k = 0
    for (r <- q.ranges) {
      ds(k) = dimIndex(r.dim); lbs(k) = r.lb; ubs(k) = r.ub; k += 1
    }
    val n = clusters.size
    val pos = new Array[Int](n); val rs = new Array[Double](n)
    var m = 0; var sum = 0.0; var j = 0
    while (j < n) {
      var r = 1.0; k = 0
      while (k < nr && r > 0.0) {
        val d = ds(k)
        r = if (colMin(d)(j) > ubs(k) || colMax(d)(j) < lbs(k)) 0.0
            else r * colMeta(d)(j).rRange(lbs(k), ubs(k))
        k += 1
      }
      if (r > 0.0) { pos(m) = j; rs(m) = r; sum += r; m += 1 }
      j += 1
    }
    val theta = if (m == 0) 0.0 else rFloorFrac * (sum / m)
    val cq = Vector.newBuilder[ClusterMeta]; val kept = Vector.newBuilder[Double]
    var i = 0
    while (i < m) {
      if (rs(i) >= theta) { cq += clusters(pos(i)); kept += rs(i) }
      i += 1
    }
    (cq.result(), kept.result())
  }

  /** Eq 1: normalized sampling probabilities `p_j = R_j / Σ R_i`.
    * Falls back to uniform when every approximated proportion is zero
    * (possible when the min/max boxes intersect the ranges but no distinct
    * value actually falls inside them).
    */
  def samplingProbabilities(rs: Seq[Double]): Vector[Double] = {
    val total = rs.sum
    if (total <= 0.0) Vector.fill(rs.size)(1.0 / math.max(1, rs.size))
    else rs.iterator.map(_ / total).toVector
  }
}

/** Offline metadata construction — Algorithm 1 as one Spark aggregation
  * over the whole federation.
  *
  * Each clustered row is exploded into `(provider, cluster, dimIdx, value)`
  * and one `groupBy(...).count` over the four columns, collected once,
  * yields every provider's per-cluster distinct-value histograms. Cluster
  * row counts are the dimension-0 histogram totals, and the suffix sums
  * (the stored `R^{d≥}` proportions) are finished on the driver, where the
  * result lives anyway: the whole point of the paper's metadata is that it
  * is small enough to consult without touching the data (11 MB for a
  * 120 GB table in §6.1).
  */
object Metadata {
  /** One [[ProviderMetadata]] per provider present in `clustered`,
    * ascending by provider id.
    */
  def build(clustered: DataFrame, dims: Seq[String], S: Int): Seq[ProviderMetadata] = {
    require(dims.nonEmpty, "metadata needs at least one dimension")
    val counts = clustered
      .select(col(Clustering.ProviderCol).cast("int").as("p"),
        col(Clustering.ClusterCol).cast("int").as("c"),
        posexplode(array(dims.map(d => col(d).cast("int")): _*)).as(Seq("d", "v")))
      .groupBy("p", "c", "d", "v")
      .agg(count(lit(1)).as("n"))
      .collect()

    // (provider, cluster) -> dimIdx -> ascending (value, rowCount) histogram
    val hist = counts.groupBy(r => (r.getInt(0), r.getInt(1))).view.mapValues(
      _.groupBy(_.getInt(2)).view.mapValues(
        _.map(r => (r.getInt(3), r.getLong(4))).sortBy(_._1)).toMap).toMap

    val keys = hist.keys.toVector.sorted
    keys.map(_._1).distinct.map { pid =>
      val metas = keys.filter(_._1 == pid).map { key =>
        val byDim = hist(key)
        val dimMetas = dims.indices.map { i =>
          val h = byDim(i)
          // suffix sums: R^{d>=}(v_i) = (sum of counts at indices >= i) / S
          val rGe = new Array[Double](h.length)
          var acc = 0L
          var j = h.length - 1
          while (j >= 0) { acc += h(j)._2; rGe(j) = acc.toDouble / S; j -= 1 }
          dims(i) -> DimMeta(h.map(_._1), rGe)
        }.toMap
        ClusterMeta(key._2, byDim(0).iterator.map(_._2).sum, dimMetas)
      }
      ProviderMetadata(pid, S, dims, metas)
    }
  }
}
