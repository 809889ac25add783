(** Explicit-state transition systems.

    The semantic graph of a program: nodes are states (indexed by dense
    integers), edges are (action id, successor id) pairs stored in CSR
    (compressed sparse row) arrays.  All decision procedures (closure,
    convergence, leads-to, fairness, safety) run on this structure.

    One engine explores, in two residency modes that produce identical
    state numbering, edges and initials:

    - {!Packed} (the default): a {!Layout} packs each state into a single
      integer rank for interning, and predicate / guard sweeps are memoized
      in per-system bitsets, so {!holds_at} and {!enabled} answer in O(1)
      after one sweep.  Frontier expansion can run on OCaml 5 domains
      ([?workers]) with a deterministic in-order merge.
    - {!Sharded}: the out-of-core mode for explorations past RAM — state
      and CSR arenas are hash-partitioned into shards whose level-aligned
      segments spill to checksummed files under a spill directory (see
      {!set_shard_defaults}), reloading on demand.  Exploration order is
      identical to {!Packed}; only residency differs.

    Every explored state must lie inside the program's declared domains.
    A step that leaves them raises [Detcor_robust.Error.Type_error] naming
    the action, the source state and the escaped variable and value; a
    product too large for the rank range is reported the same way. *)

open Detcor_kernel

type t

(** Residency mode: [Packed] (the default) keeps the explored system in
    flat in-memory arrays; [Sharded] uses the out-of-core store. *)
type engine = Packed | Sharded

exception Too_large of int

val default_limit : int

(** Process-wide parameters of the {!Sharded} engine, set once by the
    CLI before dispatching: shard count (clamped to
    {!Shard_store.max_shards}), spill directory ([None] keeps all arenas
    resident — no out-of-core behavior, just the sharded layout), and
    the resident arena budget in MiB (enforced only when spilling is
    possible). *)
val set_shard_defaults :
  shards:int -> spill_dir:string option -> arena_budget_mb:int -> unit

(** The current sharded-engine parameters:
    [(shards, spill_dir, arena_budget_mb)]. *)
val shard_defaults : unit -> int * string option * int

(** [build program ~from] explores forward from the given initial states.
    Every recorded state is reachable from [from].  [workers] > 1 expands
    large frontiers on that many OCaml domains (the result is identical to
    the sequential build); actions and predicates must then be pure.
    @raise Too_large if more than [limit] states are encountered.
    @raise Detcor_robust.Error.Detcor_error ([Type_error]) if an initial
    state or an explored successor lies outside the declared domains. *)
val build :
  ?limit:int -> ?engine:engine -> ?workers:int -> Program.t ->
  from:State.t list -> t

(** [full program] builds the system over the whole product state space:
    {!build}'s exploration seeded with every state, so its states are
    numbered in [State.compare] order.
    @raise Too_large if the product has more than [limit] states. *)
val full : ?limit:int -> ?engine:engine -> ?workers:int -> Program.t -> t

(** [of_pred program ~from] explores from all product-space states
    satisfying [from], found by one {!Layout.sweep}; the exploration is
    {!build}'s.
    @raise Too_large if more than [limit] states are seeded or explored. *)
val of_pred :
  ?limit:int -> ?engine:engine -> ?workers:int -> Program.t -> from:Pred.t -> t

val program : t -> Program.t
val num_states : t -> int
val state : t -> int -> State.t
val states : t -> State.t list
val initials : t -> int list
val actions : t -> Action.t array
val num_actions : t -> int
val action : t -> int -> Action.t

val engine_name : engine -> string

(** [escape_error ~action ~src e] raises the located type error for a step
    of [action] from [src] whose successor does not fit the layout. *)
val escape_error : action:string -> src:State.t -> Layout.escape -> 'a

(** [assemble program ~states ~row_ptr ~edge_action ~edge_target
    ~initials ~lookup] wraps a graph explored outside this module — the
    list-based oracle the differential test suites compare against — as
    a system.  The edges of state [i] are
    [edge_action.(k), edge_target.(k)] for [k] in
    [row_ptr.(i) .. row_ptr.(i+1) - 1]. *)
val assemble :
  Program.t ->
  states:State.t array ->
  row_ptr:int array ->
  edge_action:int array ->
  edge_target:int array ->
  initials:int list ->
  lookup:(State.t -> int option) ->
  t

(** For a sharded system, [(shard count, spills, spilled bytes,
    reloads)]; [None] for a packed one. *)
val shard_stats : t -> (int * int * int * int) option

val num_edges : t -> int

(** Outgoing edges of a state: [(action id, target id)] list.  Allocates;
    prefer {!iter_out} on hot paths. *)
val edges_of : t -> int -> (int * int) list

(** [iter_out ts i f] calls [f action_id target_id] for each outgoing edge
    of state [i], in edge order, without allocating. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val out_degree : t -> int -> int
val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
val index_of : t -> State.t -> int option
val action_id : t -> string -> int option

(** Ids of the actions named in the list — used to separate fault actions
    from program actions in a composed [p [] F] system. *)
val action_ids_of_names : t -> string list -> int list

val iter_edges : t -> (int -> int -> int -> unit) -> unit
val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

(** Reverse CSR adjacency over a class of actions (see {!reverse}). *)
type reverse

(** [reverse ?keep ts]: the in-edge arrays of [ts] restricted to edges
    whose action id satisfies [keep] (default: all).  Two O(edges)
    sweeps; backward fixpoints then iterate predecessors by index. *)
val reverse : ?keep:(int -> bool) -> t -> reverse

(** [iter_in rev j f] calls [f action_id source_id] for each kept in-edge
    of state [j], without allocating. *)
val iter_in : reverse -> int -> (int -> int -> unit) -> unit

(** [pred_bitset ts pred]: bitset of the states satisfying [pred], memoized
    per predicate instance. *)
val pred_bitset : t -> Pred.t -> Bitset.t

(** [enabled_bitset ts aid]: bitset of the states where action [aid]'s
    guard holds; memoized like {!pred_bitset}. *)
val enabled_bitset : t -> int -> Bitset.t

(** [enabled ts i aid]: guard of action [aid] true at state [i]. *)
val enabled : t -> int -> int -> bool

(** No action enabled at state [i]. *)
val deadlocked : t -> int -> bool

(** Indices of states satisfying the predicate, ascending. *)
val satisfying : t -> Pred.t -> int list

val holds_at : t -> Pred.t -> int -> bool
val pp_stats : t Fmt.t
