package repro.perfbench

/** Minimal JSON rendering for the raw measurement file the JVM hands to
  * `run.py`. Values are maps with string keys, sequences, strings, numbers
  * and booleans; a non-finite double renders as `null`.
  */
object Json {
  def render(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.toString
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null                          => sb ++= "null"
    case b: Boolean                    => sb ++= b.toString
    case d: Double if d.isNaN || d.isInfinite => sb ++= "null"
    case d: Double                     => sb ++= d.toString
    case n: Int                        => sb ++= n.toString
    case n: Long                       => sb ++= n.toString
    case s: String                     => quote(sb, s)
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      for ((k, x) <- m) {
        if (!first) sb += ','
        first = false
        quote(sb, k.toString); sb += ':'; write(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      for (x <- xs) { if (!first) sb += ','; first = false; write(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"not JSON-renderable: ${other.getClass}")
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }
}
