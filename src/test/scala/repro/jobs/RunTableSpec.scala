package repro.jobs

import repro.SparkSpec

/** The single table runner: id dispatch and the banner that
  * `scripts/fill_experiments.py` keys on.
  */
class RunTableSpec extends SparkSpec {

  test("an unknown id is rejected with the list of valid ids") {
    val e = intercept[IllegalArgumentException](RunTable.run(spark, "F2", Nil))
    assert(RunTable.Ids.forall(e.getMessage.contains), e.getMessage)
  }

  test("F1 at tiny scale prints the Figure 1 banner and one row per size") {
    val lines = RunTable.run(spark, "F1", Seq(8000L)).split("\n")
    assert(lines.head.startsWith("== Figure 1"), lines.head)
    // banner, header, rule, then rows for 1000, 2000, 4000 and 8000
    assert(lines.length == 7, lines.mkString("\n"))
    assert(lines(3).contains("1000") && lines(6).contains("8000"))
  }
}
