package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** The bounded top-k primitive against the stable boxed sort it replaces:
  * `pairs.sortBy(_._1).take(k).map(_._2)` under `java.lang.Double.compare`,
  * including duplicate keys, ±0.0, infinities, NaN, k = 0 and k >= n.
  */
class TopKSpec extends AnyFunSuite {

  private def check(name: String, prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, s"$name failed: ${res.status}")
  }

  private val total = Ordering.Double.TotalOrdering

  /** Keys drawn from a small pool, so most inputs carry duplicate keys. */
  private val key: Gen[Double] = Gen.frequency(
    4 -> Gen.oneOf(-1.0, -0.0, 0.0, 0.5, 2.0),
    1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN),
    3 -> Gen.choose(-3.0, 3.0))

  /** (key, id) pairs in offer order; ids are not the offer positions. */
  private val input: Gen[(Array[(Double, Int)], Int)] = for {
    n <- Gen.choose(0, 60)
    keys <- Gen.listOfN(n, key)
    k <- Gen.oneOf(Gen.const(0), Gen.choose(1, n + 1), Gen.const(n), Gen.const(n + 5))
  } yield (keys.zipWithIndex.map { case (kv, i) => (kv, 1000 - 7 * i) }.toArray, k)

  private def reference(pairs: Array[(Double, Int)], k: Int): Array[Int] =
    pairs.sortBy(_._1)(total).take(k).map(_._2)

  private def select(pairs: Array[(Double, Int)], k: Int): Array[Int] = {
    val top = new TopK(k)
    pairs.foreach { case (kv, id) => top.offer(kv, id) }
    top.result()
  }

  test("property: TopK equals the stable sort cut to k, ties by offer order") {
    check("topk-stable-sort", Prop.forAll(input) { case (pairs, k) =>
      select(pairs, k).sameElements(reference(pairs, k))
    })
  }

  test("property: TopK.largest equals the stable descending sort cut to k") {
    check("largest-stable-sort", Prop.forAll(input) { case (pairs, k) =>
      val p = pairs.map(_._1)
      val want = p.indices.sortBy(j => -p(j))(total).take(k)
      TopK.largest(p, k).sameElements(want)
    })
  }

  test("result() empties the selector, so it can be reused") {
    val top = new TopK(2)
    Seq(3.0 -> 0, 1.0 -> 1, 2.0 -> 2).foreach { case (kv, id) => top.offer(kv, id) }
    assert(top.result().toSeq == Seq(1, 2))
    Seq(5.0 -> 7, 5.0 -> 8, 4.0 -> 9).foreach { case (kv, id) => top.offer(kv, id) }
    assert(top.result().toSeq == Seq(9, 7))
    assert(top.result().isEmpty)
  }

  test("-0.0 ranks before 0.0 and NaN ranks last, as Double.compare orders them") {
    val top = new TopK(4)
    Seq(Double.NaN -> 0, 0.0 -> 1, -0.0 -> 2, Double.PositiveInfinity -> 3).foreach {
      case (kv, id) => top.offer(kv, id)
    }
    assert(top.result().toSeq == Seq(2, 1, 3, 0))
  }

  test("k = 0 keeps nothing and k < 0 is rejected") {
    val top = new TopK(0)
    top.offer(1.0, 1)
    assert(top.result().isEmpty)
    intercept[IllegalArgumentException](new TopK(-1))
  }
}
