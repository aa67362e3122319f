package repro.core

/** Bounded selection of the `k` smallest (key, id) pairs over primitive
  * arrays: the one top-k primitive behind every ranking on the query path
  * and behind the k'-NN build.
  *
  * Keys are ordered by `java.lang.Double.compare`, and equal keys by the
  * order in which they were offered. `result()` therefore returns exactly
  * the ids of a stable sort by key cut to `k`, i.e.
  * `offered.sortBy(_._1).take(k).map(_._2)`, without boxing a pair. A
  * bounded max-heap keeps the worst kept pair at its root, so an offer costs
  * O(log k) and draining costs O(k log k).
  *
  * An instance is scratch state for one ranking on one thread: create it
  * inside the call that uses it, never store it in a shared object.
  */
final class TopK(k: Int) {
  require(k >= 0, s"k=$k must be >= 0")

  private val keys = new Array[Double](k)
  private val ids = new Array[Int](k)
  private val seqs = new Array[Int](k) // offer position: the tie-break
  private var size = 0
  private var offered = 0

  /** Offer one pair; among equal keys the earlier offer ranks first. */
  def offer(key: Double, id: Int): Unit = {
    val s = offered
    offered += 1
    if (size < k) {
      // sift the new pair up from the first free slot
      var c = size
      size += 1
      var moving = c > 0
      while (moving) {
        val p = (c - 1) >>> 1
        if (after(keys(p), seqs(p), key, s)) moving = false
        else {
          keys(c) = keys(p); ids(c) = ids(p); seqs(c) = seqs(p)
          c = p
          moving = c > 0
        }
      }
      keys(c) = key; ids(c) = id; seqs(c) = s
    } else if (k > 0 && java.lang.Double.compare(key, keys(0)) < 0) {
      // strictly better than the worst kept pair (a later equal key is not)
      siftDown(key, id, s)
    }
  }

  /** The kept ids, best first; empties the selector for reuse. */
  def result(): Array[Int] = {
    val out = new Array[Int](size)
    while (size > 0) {
      size -= 1
      out(size) = ids(0)
      if (size > 0) siftDown(keys(size), ids(size), seqs(size))
    }
    offered = 0
    out
  }

  /** True when (ka, sa) ranks after (kb, sb). */
  @inline private def after(ka: Double, sa: Int, kb: Double, sb: Int): Boolean = {
    val c = java.lang.Double.compare(ka, kb)
    c > 0 || (c == 0 && sa > sb)
  }

  /** Place (key, id, s) at the root of the heap `[0, size)` and sift it down. */
  private def siftDown(key: Double, id: Int, s: Int): Unit = {
    var c = 0
    var moving = true
    while (moving) {
      val l = 2 * c + 1
      if (l >= size) moving = false
      else {
        val r = l + 1
        val m = if (r < size && after(keys(r), seqs(r), keys(l), seqs(l))) r else l
        if (after(keys(m), seqs(m), key, s)) {
          keys(c) = keys(m); ids(c) = ids(m); seqs(c) = seqs(m)
          c = m
        } else moving = false
      }
    }
    keys(c) = key; ids(c) = id; seqs(c) = s
  }
}

object TopK {

  /** Indices of the `k` largest entries of `p`, largest first, ties to the
    * lower index: `p.indices.sortBy(j => -p(j)).take(k)`. With `k >= p.length`
    * it is the full descending permutation a probe order needs.
    */
  def largest(p: Array[Double], k: Int): Array[Int] = {
    val top = new TopK(math.min(k, p.length))
    var j = 0
    while (j < p.length) { top.offer(-p(j), j); j += 1 }
    top.result()
  }
}
