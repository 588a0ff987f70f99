package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.ProviderMetadata

/** Entry point of the benchmark JVM. It runs one workload, either untraced
  * (end-to-end metrics) or traced (per-layer metrics), and writes the raw
  * measurements as JSON to `--out`; `perfbench/run.py` turns them into the
  * reported metrics.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir> --out <file>
  * }}}
  */
object Main {
  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(arg("workload"))
    val work = Paths.get(arg("work")).toAbsolutePath
    Files.createDirectories(work)
    val spark = session(work)
    System.err.println(f"perfbench: session ready")
    try {
      val run = new Run(spark, wl, arg("seed").toLong, arg("seconds").toDouble, work)
      val raw = if (arg("trace") == "1") run.traced() else run.plain()
      Files.writeString(Paths.get(arg("out")), Json.render(raw))
    } finally spark.stop()
  }

  /** Local Spark on every core, with all scratch space inside `work`. */
  def session(work: Path): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      // bound the status store so driver heap does not grow with query count
      .config("spark.sql.ui.retainedExecutions", "50")
      .config("spark.ui.retainedJobs", "100")
      .config("spark.ui.retainedStages", "100")
      .getOrCreate()
  }
}

/** One benchmark run of workload `wl`. */
final class Run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double, work: Path) {
  import Run._

  private def storeDir(k: Int): Path = work.resolve(s"store-$k")

  private val started = System.nanoTime()

  /** Progress on standard error: where a run's wall time goes. */
  private def phase(name: String): Unit =
    System.err.println(f"perfbench: $name%-14s done at ${(System.nanoTime() - started) / 1e9}%7.2f s")

  private val mismatches = mutable.ArrayBuffer.empty[String]
  private var checked = 0L

  private def check(ok: Boolean, what: => String): Unit = {
    checked += 1
    if (!ok) mismatches += what
  }

  /** Offline setup, timed: raw rows to a ready federation, replay included
    * where the workload queries the replay. The first setup of a run also
    * pays the JVM's class loading, JIT and code generation.
    */
  private def setup(k: Int): (Built, Double) = {
    spark.catalog.clearCache()
    val t0 = System.nanoTime()
    val b = wl.build(spark, storeDir(k))
    val sec = (System.nanoTime() - t0) / 1e9
    phase(s"setup $k")
    (b, sec)
  }

  private def epsCheck(item: Int, spent: Double): Unit =
    check(math.abs(spent - wl.eps) <= 1e-12 * wl.eps, s"item $item: epsSpent $spent != eps ${wl.eps}")

  /** Untimed runs on inputs that do not depend on the run's seed, so that
    * every run's JIT compiles the query path from the same early profile;
    * warmed on each run's own inputs, query latency differed by up to 2x
    * between seeds.
    */
  private def warmUp(b: Built): Unit = {
    val in = wl.warmUpInputs(b)
    loop(wl.warmUpSec) { i =>
      val it = in.items(i)
      b.fed.run(in.queries(it.query), it.sr, wl.eps, it.useSmc, it.seed, Some((0.0, 0.0)))
    }
    in.order.take(WarmUpExact).foreach(q => b.eval.exactTotal(in.queries(q)))
  }

  /** Run `body` repeatedly, counting up from 0, until `budgetSec` is spent. */
  private def loop(budgetSec: Double)(body: Int => Unit): Unit = {
    val end = System.nanoTime() + (budgetSec * 1e9).toLong
    var i = 0
    while (System.nanoTime() < end) { body(i); i += 1 }
  }

  /** The timed window: one client's closed loop. It sends the next private
    * query while private queries have had at most the workload's share of
    * the time so far, else the next exact-baseline query, so that both kinds
    * see the same machine conditions throughout. Returns the seconds spent
    * on private queries.
    */
  private def closedLoop(priv: Int => Unit)(exact: Int => Unit): Double = {
    val end = System.nanoTime() + (seconds * 1e9).toLong
    var privNs, exactNs = 0L
    var i, j = 0
    while (System.nanoTime() < end) {
      val t0 = System.nanoTime()
      if (privNs <= wl.privateShare * (privNs + exactNs)) {
        priv(i); i += 1; privNs += System.nanoTime() - t0
      } else {
        exact(j); j += 1; exactNs += System.nanoTime() - t0
      }
    }
    privNs / 1e9
  }

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Untraced run: [[SetupRepeats]] setups, then the timed window on the
    * last one; then the accuracy pass and the correctness gate, both
    * outside the window.
    */
  def plain(): Map[String, Any] = {
    // keep only the last federation, so the heap holds one
    val (setupSecs, built) = {
      val s = (0 until SetupRepeats).map(setup)
      (s.map(_._2), s.last._1)
    }
    val storeBytes = storedBytes(storeDir(SetupRepeats - 1))
    val heap = heapRetained()
    phase("heap")
    val replay = built.replay.getOrElse(Replay.of(built.setup))
    val in = wl.inputs(built, seed)
    val truth = in.queries.map(replay.eval.exactTotal)
    phase("inputs")
    warmUp(built)
    phase("warm-up")

    val queryMs, exactMs = mutable.ArrayBuffer.empty[Double]
    val answers = mutable.LongMap.empty[Double]
    var attempted = 0
    val failures = mutable.ArrayBuffer.empty[String]
    val privateSec = closedLoop { i =>
      val it = in.items(i % in.items.size)
      attempted += 1
      val t0 = System.nanoTime()
      try {
        val r = built.fed.run(in.queries(it.query), it.sr, wl.eps, it.useSmc, it.seed,
          Some((truth(it.query), 0.0)))
        val dt = ms(t0)
        if (r.answer.isNaN || r.answer.isInfinite) failures += s"item $i: answer ${r.answer}"
        else {
          queryMs += dt
          answers(i.toLong) = r.answer
          epsCheck(i, r.epsSpent)
        }
      } catch { case NonFatal(e) => failures += s"item $i: $e" }
    } { j =>
      val qi = in.order(j % in.order.size)
      val t0 = System.nanoTime()
      val v = built.eval.exactTotal(in.queries(qi))
      exactMs += ms(t0)
      if (!(built.eval eq replay.eval))
        check(v == truth(qi), s"exact query $qi: ${v} != replay ${truth(qi)}")
    }

    phase("timed loops")
    // accuracy pass on the replay; on the Spark workload it is also the
    // reference for every timed answer
    val replayAnswers = mutable.LongMap.empty[Double]
    val sameFed = built.fed eq replay.fed
    val accuracyFailures = mutable.ArrayBuffer.empty[String]
    val passLen = if (sameFed) wl.accuracyRuns else math.max(wl.accuracyRuns, attempted)
    for (k <- 0 until passLen) {
      val it = in.items(k % in.items.size)
      if (sameFed && answers.contains(k.toLong)) replayAnswers(k.toLong) = answers(k.toLong)
      else try {
        val r = replay.fed.run(in.queries(it.query), it.sr, wl.eps, it.useSmc, it.seed,
          Some((truth(it.query), 0.0)))
        replayAnswers(k.toLong) = r.answer
        epsCheck(k, r.epsSpent)
      } catch { case NonFatal(e) => accuracyFailures += s"item $k: $e" }
    }
    if (!sameFed)
      for ((k, a) <- answers)
        check(replayAnswers.get(k).contains(a),
          s"item $k: Spark answer $a != replay ${replayAnswers.get(k)}")
    else {
      // the replay stands in for Spark: compare it with the Spark path on a prefix
      val sparkFed = built.setup.federation
      for (k <- 0 until SparkCrossChecks if replayAnswers.contains(k.toLong)) {
        val it = in.items(k)
        val r = sparkFed.run(in.queries(it.query), it.sr, wl.eps, it.useSmc, it.seed,
          Some((truth(it.query), 0.0)))
        check(r.answer == replayAnswers(k.toLong),
          s"item $k: replay answer ${replayAnswers(k.toLong)} != Spark ${r.answer}")
      }
      for (qi <- 0 until math.min(SparkCrossChecks, in.queries.size)) {
        val v = built.setup.eval.exactTotal(in.queries(qi))
        check(v == truth(qi), s"exact query $qi: replay ${truth(qi)} != Spark $v")
      }
    }
    phase("gate")
    val relErr = (0 until wl.accuracyRuns).flatMap { k =>
      val t = truth(in.items(k % in.items.size).query)
      replayAnswers.get(k.toLong).filter(_ => t > 0).map(a => math.abs(a - t) / t)
    }

    Map(
      "workload" -> wl.name, "seed" -> seed, "trace" -> false,
      "setup_s" -> setupSecs,
      "private_s" -> privateSec,
      "query_ms" -> queryMs,
      "exact_ms" -> exactMs,
      "rel_err" -> relErr,
      "attempted" -> attempted,
      "failed" -> failures.size,
      "failures" -> failures.take(5),
      "accuracy_failed" -> accuracyFailures.size,
      "store_bytes" -> storeBytes,
      "metadata_bytes" -> metadataBytes(built.setup.metas),
      "heap_retained_bytes" -> heap,
      "checked" -> checked,
      "mismatches" -> mismatches.take(20),
      "mismatch_count" -> mismatches.size)
  }

  /** Traced run: one setup under the Spark probe, then the timed window,
    * with each private query answered twice, by `Federation.run` (untraced)
    * and by [[Stepwise]] (traced), in alternating order, and each exact
    * query traced.
    */
  def traced(): Map[String, Any] = {
    val probe = new SparkProbe(spark)
    probe.label("setup")
    val (built, setupSec) = setup(0)
    probe.label("")
    val replay = built.replay.getOrElse(Replay.of(built.setup))
    val in = wl.inputs(built, seed)
    val truth = in.queries.map(replay.eval.exactTotal)
    val totalClusters = built.setup.metas.map(_.clusters.size).sum
    warmUp(built)
    probe.settle()
    phase("warm-up")
    val setupJobs = probe.jobList.filter(_.label == "setup")
    probe.clear()

    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def gcMs = gc.map(_.getCollectionTime).sum.toDouble
    var gcTotal, allocTotal = 0.0

    val untracedMs, tracedMs, exactMs = mutable.ArrayBuffer.empty[Double]
    val spanMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val counts = mutable.ArrayBuffer.empty[StepCounts]
    val expectedParts = mutable.LongMap.empty[Long]
    val failures = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    closedLoop { i =>
      val it = in.items(i % in.items.size)
      val q = in.queries(it.query)
      attempted += 1
      try {
        def untraced(): Double = {
          val (g0, a0, t0) = (gcMs, threads.getTotalThreadAllocatedBytes.toDouble, System.nanoTime())
          val r = built.fed.run(q, it.sr, wl.eps, it.useSmc, it.seed, Some((truth(it.query), 0.0)))
          untracedMs += ms(t0)
          gcTotal += gcMs - g0
          allocTotal += threads.getTotalThreadAllocatedBytes - a0
          epsCheck(i, r.epsSpent)
          r.answer
        }
        def traced(): (Double, StepCounts, Spans) = {
          val spans = new Spans
          val t0 = System.nanoTime()
          val (a, c) = Stepwise.run(built.fed, built.eval, q, it.sr, wl.eps, it.useSmc, it.seed,
            spans, () => probe.label(s"scan#$i"))
          tracedMs += ms(t0)
          probe.label("")
          (a, c, spans)
        }
        val (plainAnswer, (stepAnswer, c, spans)) =
          if (i % 2 == 0) { val p = untraced(); (p, traced()) }
          else { val t = traced(); (untraced(), t) }
        check(stepAnswer == plainAnswer,
          s"item $i: traced answer $stepAnswer != Federation.run $plainAnswer")
        counts += c
        expectedParts(i.toLong) = c.sampledClusters
        for ((k, v) <- spans.ms) spanMs.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v
      } catch {
        case NonFatal(e) => probe.label(""); failures += s"item $i: $e"
      }
    } { j =>
      val q = in.queries(in.order(j % in.order.size))
      probe.label(s"exact#$j")
      val t0 = System.nanoTime()
      built.eval.exactTotal(q)
      exactMs += ms(t0)
      probe.label("")
    }
    probe.settle()
    phase("timed loops")

    // attribute Spark jobs and scans to the spans that submitted them
    val jobs = probe.jobList
    val labelOf = jobs.filter(_.executionId >= 0).map(j => j.executionId -> j.label).toMap
    val scans = probe.scanList.flatMap { case (e, s) => labelOf.get(e).map(_ -> s) }
    def perLabel(prefix: String) = scans.filter(_._1.startsWith(prefix))
    val scanScans = perLabel("scan#")
    val exactScans = perLabel("exact#")
    // pruning proof: a sampled scan reads exactly its sampled partitions, the
    // exact scan reads every partition
    if (built.eval eq built.setup.eval) {
      for ((l, s) <- scanScans) {
        val want = expectedParts(l.drop(5).toLong)
        check(s.partitions == want, s"$l: scan read ${s.partitions} partitions, sampled $want")
      }
      for ((l, s) <- exactScans)
        check(s.partitions == totalClusters,
          s"$l: exact scan read ${s.partitions} partitions of $totalClusters")
      check(scanScans.nonEmpty && exactScans.nonEmpty, "no parquet scan was observed")
    }
    def scanStats(xs: Seq[(String, SparkProbe.Scan)]) = Map(
      "files" -> xs.map(_._2.files), "bytes" -> xs.map(_._2.bytes),
      "rows" -> xs.map(_._2.rows), "partitions" -> xs.map(_._2.partitions))
    val scanJobs = jobs.filter(_.label.startsWith("scan#"))

    Map(
      "workload" -> wl.name, "seed" -> seed, "trace" -> true,
      "setup_s" -> setupSec,
      "setup_jobs" -> setupJobs.sortBy(_.start).map(j =>
        Map("site" -> j.site, "file" -> j.file, "ms" -> j.ms)),
      "replay_build_ms" -> replay.buildMs,
      "store_files" -> storedFiles(storeDir(0)),
      "total_partitions" -> totalClusters,
      "untraced_ms" -> untracedMs,
      "traced_ms" -> tracedMs,
      "spans" -> spanMs,
      "exact_ms" -> exactMs,
      "scan" -> scanStats(scanScans),
      "exact" -> scanStats(exactScans),
      "scan_jobs" -> scanJobs.size,
      "covering_clusters" -> counts.map(_.coveringClusters),
      "sampled_clusters" -> counts.map(_.sampledClusters),
      "exact_path_providers" -> counts.map(_.exactPathProviders).sum,
      "plans" -> counts.map(_.providers).sum,
      "em_draws" -> counts.map(_.emDraws),
      "gc_ms" -> gcTotal,
      "alloc_bytes" -> allocTotal,
      "attempted" -> attempted,
      "failed" -> failures.size,
      "failures" -> failures.take(5),
      "checked" -> checked,
      "mismatches" -> mismatches.take(20),
      "mismatch_count" -> mismatches.size)
  }

  /** Parquet bytes on disk, or the cached DataFrame's size in memory. */
  private def storedBytes(dir: Path): Long =
    if (Files.isDirectory(dir)) parquetFiles(dir).map(Files.size).sum
    else spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum

  /** Parquet files on disk, or cached partitions in memory. */
  private def storedFiles(dir: Path): Long =
    if (Files.isDirectory(dir)) parquetFiles(dir).size.toLong
    else spark.sparkContext.getRDDStorageInfo.map(_.numCachedPartitions.toLong).sum
}

object Run {
  /** Setups per untraced run; `setup_s` is their median. */
  val SetupRepeats = 2
  val WarmUpExact = 2
  /** Replay answers checked against the Spark path on the replay workloads. */
  val SparkCrossChecks = 2

  /** Bytes of all metadata: per cluster a 4-byte id and an 8-byte row
    * count, per dimension 4 bytes per distinct value and 8 per suffix
    * proportion.
    */
  def metadataBytes(metas: Seq[ProviderMetadata]): Long =
    metas.iterator.flatMap(_.clusters).map { c =>
      12L + c.dims.valuesIterator.map(d => 4L * d.values.length + 8L * d.rGe.length).sum
    }.sum

  /** Driver heap in use after full collections. */
  def heapRetained(): Long = {
    for (_ <- 1 to 2) { System.gc(); Thread.sleep(50) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def parquetFiles(dir: Path): Seq[Path] = {
    val s = Files.walk(dir)
    try s.iterator.asScala.filter(_.getFileName.toString.endsWith(".parquet")).toVector
    finally s.close()
  }
}
