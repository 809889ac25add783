(** Barrier computation — a case study from the paper's introduction.

    The intolerant variant caches the barrier check into a flag (a
    witness that goes stale when a fault restarts a peer); the tolerant
    variant evaluates the detector witness "I am a minimum" at the
    advance itself and is masking tolerant to phase loss. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

type config = {
  processes : int;
  phases : int;
}

val make_config : ?phases:int -> int -> config
val default : config
val phvar : int -> string

(** The phase variables, plus [losses] in 0..n: the restart count the
    phase-loss fault class keeps, which the programs never write. *)
val vars : config -> (string * Domain.t) list

val phase : State.t -> int -> int

(** No two processes more than one phase apart. *)
val window : config -> Pred.t

val all_done : config -> Pred.t

(** The detector witness of process [i]: nobody is behind it. *)
val is_minimum : config -> int -> Pred.t

(** Cached-witness variant: detect into [done.i], advance on the flag. *)
val intolerant : config -> Program.t

(** Its invariant: the window plus witness freshness, before any phase
    loss. *)
val intolerant_invariant : config -> Pred.t

(** Fresh-witness variant — masking tolerant to phase loss. *)
val tolerant : config -> Program.t

(** Phase loss: a process restarts at phase 0 (at most [max_losses]
    times, at most one per process). *)
val phase_loss : ?max_losses:int -> config -> Fault.t

(** No barrier overtaking (safety); everyone completes (liveness). *)
val spec : config -> Spec.t

(** The window, before any phase loss ([losses] = 0). *)
val invariant : config -> Pred.t

(** The unguarded base program the tolerant barrier refines; the
    tolerant actions are [based_on] its advances, enabling Theorem 3.4
    extraction of the detection predicates. *)
val unguarded : config -> Program.t
