(** Variable layouts: the compiled shape of a program's state space.

    A layout maps a program's variables (in ascending name order) and their
    finite domains (in ascending {!Detcor_kernel.Value.compare} order) to
    integer indices, so that any state binding exactly those variables to
    in-domain values packs into a single integer rank.  Rank order coincides
    with {!Detcor_kernel.State.compare} order, which the packed engine of
    {!Ts} relies on to number initial states without sorting. *)

open Detcor_kernel

type t

(** Why a state does not fit a layout. *)
type escape =
  | Extra_variable of string
  | Missing_variable of string
  | Out_of_domain of string * Value.t

(** Raised by {!pack} when a state binds a variable outside the layout, is
    missing a layout variable, or holds an out-of-domain value; the payload
    names the offending variable (and value). *)
exception Unrepresentable of escape

val pp_escape : Format.formatter -> escape -> unit

(** [of_program p] compiles the layout of [p]'s declared variables, or
    [None] when the product space size overflows the integer range. *)
val of_program : Program.t -> t option

(** [compile p] is [of_program p], with an overflowing product reported
    as a located [Error.Type_error] naming the program. *)
val compile : Program.t -> t

val num_vars : t -> int

(** Size of the full product space. *)
val space : t -> int

val var : t -> int -> string
val domain_values : t -> int -> Value.t list

(** [pack t st] is the mixed-radix rank of [st].
    @raise Unrepresentable if [st] does not fit the layout. *)
val pack : t -> State.t -> int

val pack_opt : t -> State.t -> int option

(** [pack_from t ~src_rank src st'] is [pack t st'], computed as a delta
    against the source state [src] of known rank [src_rank].  Successor
    states share the untouched binding tuples of their source, so the
    common case is a physical-equality scan plus one coder lookup per
    changed variable; shape mismatches fall back to the full {!pack}.

    [src_rank] {e must} equal [pack t src]: the delta trusts the claimed
    rank, so passing a rank from a different numbering (a stale frontier
    entry, another arena's local index) silently yields a wrong rank.
    Carry the rank alongside the state it ranks.
    @raise Unrepresentable if [st'] does not fit the layout. *)
val pack_from : t -> src_rank:int -> State.t -> State.t -> int

(** [unpack t rank] rebuilds the state of the given rank; inverse of
    {!pack} on representable states. *)
val unpack : t -> int -> State.t

(** [unpack_into t sc rank] decodes [rank] into the scratch buffer [sc]
    (from {!scratch}) without allocating a state; the buffer is
    invalidated by the next call. *)
val unpack_into : t -> State.scratch -> int -> unit

(** A scratch buffer over this layout's variables, for {!unpack_into}. *)
val scratch : t -> State.scratch

(** [sweep t test f] calls [f rank sc] for each state of the product
    space whose view satisfies [test], in ascending rank order.  One
    {!Detcor_kernel.State.scratch} buffer is reused for the whole sweep
    and is invalidated by the next visit: [f] must [State.scratch_copy]
    states it retains.  Raise from [test] or [f] to stop early.

    The sweep is a backtracking search in layout order.  After binding
    each variable it runs [test] on a {e partial} view, whose unbound
    slots raise {!Detcor_kernel.State.Undecided} when read; [false]
    prunes every completion, [true] or [Undecided] descends.  At full
    depth [test] runs on the complete state exactly as a full product
    walk would, and [f] sees exactly the states and ranks such a walk
    yields.

    Contract on [test]: it must be a deterministic function of the values
    it reads through {!Detcor_kernel.State}'s observers, and must not
    catch {!Detcor_kernel.State.Undecided}.  Soundness: a call that
    returns without raising [Undecided] has read only bound slots, so
    every completion of the partial state reads the same values and gets
    the same answer, or the same exception.  Hence [Pred.make] closures
    over [State.get], [Pred.of_expr], [Pred.of_states] (hash and equal)
    and rank lookups through {!pack} all prune soundly.  An exception
    other than [Undecided] raised on a partial view propagates at once,
    after the same [f] calls the full walk would have made before its
    first leaf in that subtree raises it.  Each [test] call, at inner
    nodes and leaves alike, is one [Budget.tick]. *)
val sweep : t -> (State.t -> bool) -> (int -> State.scratch -> unit) -> unit

val pp : t Fmt.t
