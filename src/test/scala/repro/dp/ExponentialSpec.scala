package repro.dp

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Exponential mechanism and Algorithm 2's without-replacement sampling. */
class ExponentialSpec extends AnyFunSuite {

  test("infinite epsilon selects the argmax") {
    val scores = IndexedSeq(0.1, 0.9, 0.3)
    val rng = new Random(1)
    assert((1 to 50).forall(_ =>
      Exponential.select(scores, Double.PositiveInfinity, 1.0, rng) == 1))
  }

  test("empirical selection frequencies match the softmax distribution") {
    val scores = IndexedSeq(0.0, 1.0, 2.0)
    val eps = 1.0; val sens = 1.0
    val weights = scores.map(s => math.exp(eps * s / (2 * sens)))
    val expected = weights.map(_ / weights.sum)
    val rng = new Random(2)
    val n = 60000
    val counts = Array.fill(scores.size)(0)
    for (_ <- 1 to n) counts(Exponential.select(scores, eps, sens, rng)) += 1
    for (i <- scores.indices) {
      val freq = counts(i).toDouble / n
      assert(math.abs(freq - expected(i)) < 0.01, s"index $i: $freq vs ${expected(i)}")
    }
  }

  test("higher scores are selected more often") {
    val scores = IndexedSeq(0.01, 0.3, 0.69)
    val rng = new Random(3)
    val counts = Array.fill(3)(0)
    for (_ <- 1 to 20000) counts(Exponential.select(scores, 2.0, 0.5, rng)) += 1
    assert(counts(2) > counts(1) && counts(1) > counts(0), counts.toSeq)
  }

  test("tiny epsilon approaches uniform selection") {
    val scores = IndexedSeq(0.0, 10.0)
    val rng = new Random(4)
    val counts = Array.fill(2)(0)
    for (_ <- 1 to 40000) counts(Exponential.select(scores, 1e-6, 1.0, rng)) += 1
    assert(math.abs(counts(0).toDouble / 40000 - 0.5) < 0.02)
  }

  test("numerically stable under extreme score/sensitivity ratios") {
    val scores = IndexedSeq(0.1, 0.9)
    val rng = new Random(5)
    val i = Exponential.select(scores, 1000.0, 1e-9, rng) // exponent ~1e11
    assert(i == 0 || i == 1)
  }

  test("sampling without replacement returns distinct indices") {
    val scores = IndexedSeq.tabulate(20)(i => (i + 1) / 20.0)
    val rng = new Random(6)
    for (_ <- 1 to 50) {
      val picked = Exponential.sampleWithoutReplacement(scores, 8, 1.0, 0.01, rng)
      assert(picked.size == 8 && picked.distinct.size == 8)
      assert(picked.forall(i => i >= 0 && i < 20))
    }
  }

  test("sample size is clamped to the candidate count") {
    val scores = IndexedSeq(0.3, 0.7)
    val rng = new Random(7)
    assert(Exponential.sampleWithoutReplacement(scores, 10, 1.0, 0.1, rng).size == 2)
    assert(Exponential.sampleWithoutReplacement(scores, 0, 1.0, 0.1, rng).isEmpty)
    assert(Exponential.sampleWithoutReplacement(scores, -3, 1.0, 0.1, rng).isEmpty)
  }

  test("infinite total budget picks the top-s scores") {
    val scores = IndexedSeq(0.1, 0.8, 0.4, 0.9, 0.2)
    val rng = new Random(8)
    val picked = Exponential.sampleWithoutReplacement(
      scores, 2, Double.PositiveInfinity, 0.1, rng)
    assert(picked.toSet == Set(3, 1))
  }

  test("ordered pairs follow the sequential-EM (Plackett-Luce) distribution") {
    // two draws at eps/s = 1 each: P(i then j) = w_i/W * w_j/(W - w_i)
    val scores = IndexedSeq(0.0, 1.0, 2.0)
    val w = scores.map(s => math.exp(1.0 * s / 2.0))
    val total = w.sum
    val rng = new Random(12)
    val n = 60000
    val counts = scala.collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
    for (_ <- 1 to n) {
      val picked = Exponential.sampleWithoutReplacement(scores, 2, 2.0, 1.0, rng)
      counts((picked(0), picked(1))) += 1
    }
    val pairs = for (i <- scores.indices; j <- scores.indices if i != j) yield (i, j)
    assert(counts.keySet.subsetOf(pairs.toSet), counts)
    for ((i, j) <- pairs) {
      val expected = w(i) / total * w(j) / (total - w(i))
      val freq = counts((i, j)).toDouble / n
      assert(math.abs(freq - expected) < 0.01, s"pair ($i,$j): $freq vs $expected")
    }
  }

  test("biased-but-random: high-probability clusters appear more often across runs") {
    val scores = IndexedSeq(0.05, 0.05, 0.05, 0.85)
    val rng = new Random(9)
    var top = 0
    val runs = 5000
    for (_ <- 1 to runs)
      if (Exponential.sampleWithoutReplacement(scores, 1, 2.0, 0.01, rng).head == 3) top += 1
    assert(top.toDouble / runs > 0.5)
  }

  test("empty candidate set is rejected") {
    intercept[IllegalArgumentException](
      Exponential.select(IndexedSeq.empty, 1.0, 1.0, new Random(10)))
  }
}
