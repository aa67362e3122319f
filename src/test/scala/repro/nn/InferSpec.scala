package repro.nn

import java.util.{Arrays, Random}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.BoxedReference
import repro.linalg.Mat

/** `Net.infer`, the single inference path, against the inference forward
  * pass it replaced: bit-identical probabilities, and no layer state read or
  * written.
  */
class InferSpec extends AnyFunSuite {

  private def randMat(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    Mat(rows, cols)((_, _) => rng.nextGaussian())
  }

  /** A few Adam steps on a toy loss, so weights and BatchNorm running
    * statistics are far from their initial values.
    */
  private def trained(net: Net, d: Int, m: Int): Net = {
    val opt = new Adam(net.params, 0.01)
    for (s <- 0 until 5) {
      val x = randMat(64, d, 100 + s)
      val p = Net.softmaxRows(net.forward(x, training = true))
      val g = Mat(64, m)((i, j) => if (j == i % m) -1.0 / p(i, j) / 64 else 0.0)
      net.zeroGrad()
      net.backward(Net.softmaxBackward(p, g))
      opt.step()
    }
    net
  }

  private val d = 12
  private val m = 6
  private lazy val nets = Seq(
    "mlp" -> trained(Net.mlp(d, 20, m, seed = 1), d, m),
    "mlp2" -> trained(Net.mlp2(d, 20, m, seed = 2, dropout = 0.1), d, m),
    "logistic" -> trained(Net.logistic(d, m, seed = 3), d, m))

  test("infer equals forward(training = false) + softmax and the reference, bit for bit") {
    for ((name, net) <- nets; rows <- Seq(1, 7, 300)) {
      val x = randMat(rows, d, 7 + rows)
      val got = net.infer(x)
      assert(Arrays.equals(got.a, Net.softmaxRows(net.forward(x, training = false)).a), s"$name rows=$rows")
      assert(Arrays.equals(got.a, BoxedReference.probs(net, x).a), s"$name rows=$rows")
      for (i <- 0 until rows)
        assert(Arrays.equals(net.infer(x.row(i)), got.row(i)), s"$name row $i")
    }
  }

  test("infer leaves its input and the training caches untouched") {
    // no dropout here, so two training forwards of one batch are identical
    val plain = Seq(Net.mlp(d, 20, m, seed = 4, dropout = 0.0),
                    Net.mlp2(d, 20, m, seed = 5, dropout = 0.0), Net.logistic(d, m, seed = 6))
    for (net <- plain) {
      val xb = randMat(16, d, 11)
      val dz = randMat(16, m, 12)
      net.forward(xb, training = true)
      net.zeroGrad()
      net.backward(dz)
      val want = net.params.map(_.g.a.clone())
      // again, with an inference call between forward and backward
      val q = randMat(5, d, 13)
      val qBefore = q.a.clone()
      net.forward(xb, training = true)
      net.infer(q)
      net.zeroGrad()
      net.backward(dz)
      assert(Arrays.equals(q.a, qBefore))
      assert(net.params.map(_.g.a).zip(want).forall { case (a, b) => Arrays.equals(a, b) })
    }
  }
}
