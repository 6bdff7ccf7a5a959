(** Tokens of a tokenized Web page. *)

type kind =
  | Start_tag of string  (** lowercased tag name *)
  | End_tag of string
  | Word  (** a visible text token *)

type t = {
  text : string;
      (** visible text for [Word]; canonical rendering for tags *)
  kind : kind;
  types : int;  (** {!Token_type} bitmask *)
  index : int;  (** position in the page's token stream *)
}

val word : index:int -> string -> t
(** Make a [Word] token, classifying its types. *)

val start_tag : index:int -> string -> t
val end_tag : index:int -> string -> t

val is_tag : t -> bool
val is_word : t -> bool

val is_separator : t -> bool
(** Per Section 3.2: HTML tags are separators; so is a punctuation-only
    token containing any character outside the benign set [.,()-]. *)

val template_key : t -> string
(** Equality key used by template induction: tags compare by name and
    start/end polarity only (attribute values such as hrefs vary page to
    page); words compare by exact text. It is the token's [text], which
    for a tag is already the canonical [<name>] or [</name>], so it
    allocates nothing. *)

val equal_for_template : t -> t -> bool

val pp : Format.formatter -> t -> unit
