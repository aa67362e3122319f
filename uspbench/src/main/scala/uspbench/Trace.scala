package uspbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `query` is the query id, or -1 outside the
  * query phase (set-up spans carry the set-up repetition as `rep`).
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int,
                      query: Int, rep: Int, allocBytes: Long) {
  def durNs: Long = end - start
}

/** In-memory span recorder. Spans are opened around calls into the
  * program's public functions from the benchmark's side; nothing inside the
  * program is instrumented. With `enabled = false`, `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var rep: Int = -1

  def span[T](name: String, query: Int = -1)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val a0 = Jvm.threadAllocatedBytes()
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val a1 = Jvm.threadAllocatedBytes()
        stack = stack.tail
        spans += Span(id, name, t0, t1, parent, query, rep, a1 - a0)
      }
    }

  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** A span's duration minus the time its direct children cover. Children
    * of one span run one after another on the same thread, so they do not
    * overlap.
    */
  def selfNs: Map[Int, Long] = {
    val childNs = spans.groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  /** Total self time per span name, in ms. */
  def selfMsByName: Seq[(String, Double)] = {
    val self = selfNs
    spans.groupMapReduce(_.name)(s => self(s.id))(_ + _)
      .toSeq.sortBy(-_._2).map { case (n, ns) => n -> ns / 1e6 }
  }

  def toJson: Json.Raw = {
    val rows = spans.map { s =>
      Json.obj("id" -> s.id, "name" -> s.name, "start_ns" -> s.start, "end_ns" -> s.end,
        "parent" -> s.parent, "query" -> s.query, "rep" -> s.rep, "alloc_bytes" -> s.allocBytes)
    }
    val self = selfMsByName.map { case (n, ms) => Json.obj("name" -> n, "self_ms" -> ms) }
    Json.obj("spans" -> Json.arr(rows.toSeq), "self_ms_by_name" -> Json.arr(self))
  }
}

/** JMX counters: allocation per thread, GC time and process CPU time. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def processCpuNs(): Long = os.getProcessCpuTime

  /** Used heap after a full collection, in MB. */
  def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
