package repro.smc

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Additive secret sharing over Z_2^64: reconstruction, share hiding,
  * secure sum/max correctness, fixed-point precision.
  */
class SecretSharingSpec extends AnyFunSuite {

  test("share/reconstruct round-trips arbitrary longs") {
    val rng = new Random(1)
    for (_ <- 1 to 500) {
      val secret = rng.nextLong()
      val n = 2 + rng.nextInt(8)
      assert(SecretSharing.reconstruct(SecretSharing.share(secret, n, rng).toSeq) == secret)
    }
  }

  test("round-trips extreme values (wrap-around ring)") {
    val rng = new Random(2)
    for (secret <- Seq(Long.MaxValue, Long.MinValue, 0L, -1L, 1L)) {
      assert(SecretSharing.reconstruct(SecretSharing.share(secret, 4, rng).toSeq) == secret)
    }
  }

  test("no single share equals the secret (overwhelmingly)") {
    val rng = new Random(3)
    var collisions = 0
    for (_ <- 1 to 1000) {
      val secret = rng.nextLong()
      if (SecretSharing.share(secret, 4, rng).contains(secret)) collisions += 1
    }
    assert(collisions <= 1) // probability ~ 4/2^64 per trial
  }

  test("shares of the same secret differ between runs (randomized)") {
    val rng = new Random(4)
    val a = SecretSharing.share(12345L, 4, rng)
    val b = SecretSharing.share(12345L, 4, rng)
    assert(!a.sameElements(b))
  }

  test("fixed-point encode/decode is lossless to 1e-6") {
    val rng = new Random(5)
    for (_ <- 1 to 1000) {
      val x = (rng.nextDouble() - 0.5) * 2e9
      // x·Scale ~ 1e15 sits near the double ulp of 0.125, so allow one
      // full fixed-point step of error
      assert(math.abs(SecretSharing.decode(SecretSharing.encode(x)) - x) <= 1.0 / SecretSharing.Scale)
    }
  }

  test("secure sum equals the plaintext sum") {
    val rng = new Random(6)
    for (_ <- 1 to 200) {
      val values = Seq.fill(2 + rng.nextInt(6))((rng.nextDouble() - 0.3) * 1e6)
      val got = SecretSharing.secureSum(values, rng)
      assert(math.abs(got - values.sum) < values.size * 1e-6 + 1e-9,
        s"$got vs ${values.sum}")
    }
  }

  test("secure sum handles negatives and zeros") {
    val rng = new Random(7)
    assert(math.abs(SecretSharing.secureSum(Seq(-5.5, 5.5, 0.0), rng)) < 1e-6)
  }

  test("inputs beyond the fixed-point range are rejected, not wrapped") {
    val e = intercept[IllegalArgumentException](
      SecretSharing.secureSum(Seq(1e13, 1.0), new Random(12)))
    assert(e.getMessage.contains("2^63 / Scale"), e.getMessage)
    intercept[IllegalArgumentException](SecretSharing.encode(-1e13))
    intercept[IllegalArgumentException](SecretSharing.encode(Double.NaN))
    // two in-range inputs whose sum would leave the ring
    intercept[IllegalArgumentException](
      SecretSharing.secureSum(Seq(5e12, 5e12), new Random(13)))
    assert(SecretSharing.decode(SecretSharing.encode(9e12)) == 9e12)
  }

  test("secure max equals the plaintext max") {
    val rng = new Random(8)
    for (_ <- 1 to 200) {
      val values = Seq.fill(2 + rng.nextInt(6))((rng.nextDouble() - 0.5) * 1e4)
      assert(SecretSharing.secureMax(values, rng) == values.max)
    }
  }

  test("secure max of a singleton is the value itself") {
    assert(SecretSharing.secureMax(Seq(42.0), new Random(9)) == 42.0)
  }

  test("sharing requires at least two parties") {
    intercept[IllegalArgumentException](SecretSharing.share(1L, 1, new Random(10)))
    intercept[IllegalArgumentException](SecretSharing.secureSum(Seq(1.0), new Random(11)))
  }
}
