package repro.dp

import scala.util.Random

/** Exponential mechanism (paper Def 3.5) and the EM-based cluster sampling
  * of Algorithm 2.
  *
  * A draw selects index `i` with probability proportional to
  * `exp(ε·L(i) / (2·Δ_L))`. Both entry points draw through Gumbel keys
  * `ε·L(i)/(2·Δ_L) + Gumbel(0,1)`: the argmax of the keys is one EM draw, and
  * the top `k` keys in order are `k` sequential EM draws without replacement
  * (Plackett–Luce; Durfee & Rogers, NeurIPS 2019). Keys stay in log space,
  * so large `score/Δ` ratios cannot overflow.
  */
object Exponential {

  /** One Gumbel key per score. At `ε = ∞` the keys are the raw scores and
    * no random number is drawn (noiseless selection, which tests use to pin
    * down the scoring function).
    */
  private def keys(scores: IndexedSeq[Double], eps: Double, sensitivity: Double,
                   rng: Random): Array[Double] =
    if (eps.isPosInfinity) scores.toArray
    else scores.iterator.map(s =>
      eps * s / (2.0 * sensitivity) - math.log(-math.log(rng.nextDouble()))).toArray

  /** One ε-DP draw from `scores`. Ties go to the lowest index. */
  def select(scores: IndexedSeq[Double], eps: Double, sensitivity: Double,
             rng: Random): Int = {
    require(scores.nonEmpty, "cannot select from an empty candidate set")
    val k = keys(scores, eps, sensitivity, rng)
    k.indices.maxBy(k)(Ordering.Double.IeeeOrdering)
  }

  /** Algorithm 2 (`EM_sampling`): select `s` distinct indices without
    * replacement, spending `ε^s = totalEps / s` per draw; the score of a
    * cluster is its sampling probability `p_i` (Eq 1) with sensitivity
    * `Δp = 1/(N^min(N^min+1))` (Theorem 5.2). Returns the draws in order.
    */
  def sampleWithoutReplacement(scores: IndexedSeq[Double], s: Int, totalEps: Double,
                               sensitivity: Double, rng: Random): Vector[Int] = {
    val k = math.min(math.max(s, 0), scores.length)
    if (k == 0) return Vector.empty
    val key = keys(scores, totalEps / k, sensitivity, rng)
    // stable sort: equal keys keep ascending index order
    key.indices.sortBy(key)(Ordering.Double.IeeeOrdering.reverse).take(k).toVector
  }
}
