(** First-order formulas over linear-constraint atoms, with the
    normalization steps the paper's derivation procedure needs (§5.2):
    negation-normal form (for step UE), disjunctive normal form (for step
    DE), plus evaluation and simplification. *)

type t =
  | True
  | False
  | Atom of Atom.t
  | Not of t
  | And of t list
  | Or of t list
  | Exists of string * t
  | Forall of string * t

val atom : Atom.t -> t
val conj : t list -> t
val disj : t list -> t
val neg : t -> t
val exists_many : string list -> t -> t
val forall_many : string list -> t -> t

(** Free variables. *)
val vars : t -> string list

val rename : (string -> string) -> t -> t

(** Push negations to the leaves; the result contains no [Not], no [Forall]
    (∀x θ ↦ ¬∃x ¬θ is applied by the caller before this), and negated atoms
    are rewritten as atoms (¬(e = 0) becomes a disjunction). Quantifier-free
    input is required. *)
val nnf : t -> t

(** Disjunctive normal form of a quantifier-free formula already in NNF:
    a list of conjunctions of atoms. *)
val dnf : t -> Atom.t list list

val eval : (string -> Rat.t) -> t -> bool
val eval_float : (string -> float) -> t -> bool

(** Flatten, fold constants, drop duplicate or implied atoms in
    conjunctions/disjunctions, and absorb clauses: a conjunction drops a
    disjunction one of whose atoms a sibling atom implies (a ∧ (b ∨ …) ≡ a
    when a ⇒ b), a disjunction a conjunction one of whose atoms implies a
    sibling atom.  Quantifier-free input only. *)
val simplify : t -> t

val to_string : t -> string
val equal : t -> t -> bool
