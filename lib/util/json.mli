(** JSON values, the strict (RFC 8259) parser every reader uses, and
    the one string quoter every writer uses. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of v list
  | Obj of (string * v) list

exception Parse_error of string

(** [parse s] reads exactly one JSON value, surrounded by optional
    whitespace. Numbers follow the RFC grammar (no leading [+], no
    leading zeros, digits on both sides of [.]); strings reject raw
    bytes below 0x20, and a [\u] escape above the ASCII range becomes
    ['?']. Raises {!Parse_error} with the byte offset of the fault. *)
val parse : string -> v

(** [quote s] is [s] as a JSON string literal: the quote, the backslash,
    newline, carriage return and tab get their short escapes, other
    bytes below 0x20 become [\u00XX], and every other byte, UTF-8
    included, is kept as is, so [parse (quote s) = Str s]. *)
val quote : string -> string
