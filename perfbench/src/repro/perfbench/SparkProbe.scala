package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd,
  SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution, SparkPlanInfo}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate,
  SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener

/** Observes Spark from outside the program during the traced run.
  *
  * Each job is tagged with the benchmark span that submitted it (a
  * thread-local property set by [[label]]) and with its call site
  * (`<action> at <File>.scala:<line>`): the one Spark records for the job's
  * SQL execution, else the result stage's name. Jobs that adaptive execution
  * submits from its own threads carry the call site of that pool, so the
  * execution's call site is the one that names the program's code.
  *
  * Each finished SQL execution contributes the scan metrics of its executed
  * plan: files, bytes, rows and partitions read. A scan is joined to its
  * execution, and so to the span, through the accumulator ids of its
  * metrics, which the execution's plan events list.
  */
final class SparkProbe(spark: SparkSession)
    extends SparkListener with QueryExecutionListener with AdaptiveSparkPlanHelper {
  import SparkProbe._

  private val jobs = new ConcurrentHashMap[Int, Job]()
  private val scans = new ConcurrentLinkedQueue[Scan]()
  private val executionSite = new ConcurrentHashMap[java.lang.Long, String]()
  private val executionOfMetric = new ConcurrentHashMap[java.lang.Long, java.lang.Long]()
  private val events = new AtomicLong()

  spark.sparkContext.addSparkListener(this)
  spark.listenerManager.register(this)

  /** Tag every job the calling thread submits from now on. */
  def label(name: String): Unit = spark.sparkContext.setLocalProperty(LabelKey, name)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k)))
    val exec = prop("spark.sql.execution.id").map(_.toLong).getOrElse(-1L)
    val site = Option(executionSite.get(exec)).getOrElse(
      if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name)
    jobs.put(e.jobId, Job(prop(LabelKey).getOrElse(""), site, exec, e.time, -1L))
    events.incrementAndGet()
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart =>
      executionSite.put(s.executionId, s.description)
      noteMetrics(s.executionId, s.sparkPlanInfo)
    case u: SparkListenerSQLAdaptiveExecutionUpdate =>
      noteMetrics(u.executionId, u.sparkPlanInfo)
    case _ =>
  }

  private def noteMetrics(execution: Long, plan: SparkPlanInfo): Unit = {
    plan.metrics.foreach(m => executionOfMetric.put(m.accumulatorId, execution: java.lang.Long))
    plan.children.foreach(noteMetrics(execution, _))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    jobs.computeIfPresent(e.jobId, (_, j) => j.copy(end = e.time))
    events.incrementAndGet()
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val fileScans = collect(qe.executedPlan) { case s: FileSourceScanExec => s }
    def total(key: String) = fileScans.map(_.metrics.get(key).map(_.value).getOrElse(0L)).sum
    if (fileScans.nonEmpty)
      scans.add(Scan(fileScans.flatMap(_.metrics.values.map(_.id)).toSet, total("numFiles"),
        total("filesSize"), total("numOutputRows"), total("numPartitions")))
    events.incrementAndGet()
  }

  override def onFailure(funcName: String, qe: QueryExecution, error: Exception): Unit =
    events.incrementAndGet()

  /** Wait until the listener bus has delivered the events of all work
    * submitted so far: every job has ended and nothing new arrived for a
    * while.
    */
  def settle(timeoutMs: Long = 20000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var last = -1L
    while (System.currentTimeMillis() < deadline &&
      (events.get != last || jobs.values.asScala.exists(_.end < 0))) {
      last = events.get
      Thread.sleep(150)
    }
  }

  def jobList: Seq[Job] = jobs.values.asScala.toSeq

  /** Finished file scans with the execution each belongs to, where known. */
  def scanList: Seq[(Long, Scan)] = scans.asScala.toSeq.flatMap { s =>
    s.metricIds.iterator.flatMap(id => Option(executionOfMetric.get(id))).nextOption()
      .map(_.longValue -> s)
  }

  def clear(): Unit = { jobs.clear(); scans.clear(); executionSite.clear(); executionOfMetric.clear() }
}

object SparkProbe {
  val LabelKey = "perfbench.label"

  final case class Job(label: String, site: String, executionId: Long, start: Long, end: Long) {
    def ms: Double = (end - start).toDouble

    /** Source file of the call site, e.g. `Metadata.scala`. */
    def file: String = {
      val at = site.lastIndexOf(" at ")
      val rest = if (at < 0) site else site.substring(at + 4)
      rest.takeWhile(_ != ':')
    }
  }

  final case class Scan(metricIds: Set[Long], files: Long, bytes: Long, rows: Long,
                        partitions: Long)
}
