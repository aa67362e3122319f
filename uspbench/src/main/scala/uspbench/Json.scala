package uspbench

/** A minimal JSON writer; values are rendered as they are built. */
object Json {
  final case class Raw(s: String) { override def toString: String = s }

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def value(v: Any): String = v match {
    case null        => "null"
    case r: Raw      => r.s
    case s: String   => str(s)
    case b: Boolean  => b.toString
    case d: Double   =>
      require(!d.isNaN && !d.isInfinite, s"non-finite value $d")
      d.toString
    case i: Int      => i.toString
    case l: Long     => l.toString
    case s: Seq[_]   => s.map(value).mkString("[", ", ", "]")
    case o           => str(o.toString)
  }

  def obj(kv: (String, Any)*): Raw =
    Raw(kv.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  def arr(vs: Seq[Any]): Raw = Raw(vs.map(value).mkString("[", ", ", "]"))
}
