(* Triple modular redundancy (Section 6.1).

   Three inputs x, y, z and one output [out].  In the absence of faults all
   inputs are identical; a fault corrupts at most one input.  SPEC_io
   requires the output to be assigned the value of an uncorrupted input.

   The paper constructs the TMR program by adding to the intolerant
   program IR (out := x) a detector DR with witness (x=y ∨ x=z) and
   detection predicate (x = uncor), then a corrector CR that copies y or z
   when they are sound.  With at most one corruption, the uncorrupted
   value is the majority of the three inputs. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

let input_domain = Domain.range 0 1
let out_domain = Domain.with_bot (Domain.range 0 1)

let vars =
  [
    ("x", input_domain);
    ("y", input_domain);
    ("z", input_domain);
    ("out", out_domain);
  ]

let v st name = State.get st name
let out_bot = Pred.make "out=bot" (fun st -> Value.equal (v st "out") Value.bot)

(* The majority of the three inputs — defined whenever at least two agree,
   which the "at most one corruption" fault class guarantees. *)
let majority st =
  let x = v st "x" and y = v st "y" and z = v st "z" in
  if Value.equal x y || Value.equal x z then Some x
  else if Value.equal y z then Some y
  else None

(* uncor: the value of an uncorrupted input (the majority under at most one
   corruption). *)
let out_is_uncor =
  Pred.make "out=uncor" (fun st ->
      match majority st with
      | Some m -> Value.equal (v st "out") m
      | None -> false)

(* SPEC_io: the output is only ever assigned the value of an uncorrupted
   input, and it is eventually assigned. *)
let spec =
  Spec.make ~name:"SPEC_io"
    ~safety:
      (Safety.make ~name:"output only from uncorrupted input"
         ~bad_transition:(fun st st' ->
           Value.equal (v st "out") Value.bot
           && (not (Value.equal (v st' "out") Value.bot))
           && not
                (match majority st with
                | Some m -> Value.equal (v st' "out") m
                | None -> false))
         ())
    ~liveness:
      (Liveness.eventually ~name:"eventually out=uncor" out_is_uncor)
    ()

(* S: no input corrupted, output unassigned or already correct. *)
let invariant =
  Pred.make "S_tmr" (fun st ->
      Value.equal (v st "x") (v st "y")
      && Value.equal (v st "y") (v st "z")
      && (Value.equal (v st "out") Value.bot || Value.equal (v st "out") (v st "x")))

(* T: at most one input corrupted, output unassigned or correct. *)
let span_pred =
  Pred.make "T_tmr" (fun st ->
      match majority st with
      | None -> false
      | Some m ->
        Value.equal (v st "out") Value.bot || Value.equal (v st "out") m)

(* ------------------------------------------------------------------ *)
(* Fault-intolerant program IR: copy x into out.                       *)
(* ------------------------------------------------------------------ *)

let copy_action ?based_on ~guard name src =
  Action.deterministic ?based_on name guard (fun st ->
      State.set st "out" (v st src))

let intolerant =
  Program.make ~name:"IR" ~vars
    ~actions:[ copy_action ~guard:out_bot "IR1" "x" ]

(* ------------------------------------------------------------------ *)
(* Fault: corrupts at most one of the three inputs.                    *)
(* ------------------------------------------------------------------ *)

(* A corruption strikes only while all three inputs agree, so at most one
   input is ever corrupted — the state property the paper assumes —
   without a bookkeeping variable outside the program's declared
   product. *)
let inputs_agree =
  Pred.make "x=y=z" (fun st ->
      Value.equal (v st "x") (v st "y") && Value.equal (v st "y") (v st "z"))

let corrupt_input name =
  Action.corrupt (Fmt.str "F:corrupt-%s" name) inputs_agree name input_domain

let one_corruption =
  Fault.make "one-input-corruption"
    [ corrupt_input "x"; corrupt_input "y"; corrupt_input "z" ]

(* ------------------------------------------------------------------ *)
(* DR ; IR — the detector-restricted program (fail-safe).              *)
(* The witness predicate of DR is (x=y ∨ x=z); its detection predicate  *)
(* is (x = uncor).                                                      *)
(* ------------------------------------------------------------------ *)

let dr_witness =
  Pred.make "x=y \\/ x=z" (fun st ->
      Value.equal (v st "x") (v st "y") || Value.equal (v st "x") (v st "z"))

let dr_detection =
  Pred.make "x=uncor" (fun st ->
      match majority st with
      | Some m -> Value.equal (v st "x") m
      | None -> false)

let detector = Detector.make ~name:"DR" ~witness:dr_witness ~detection:dr_detection ()

let failsafe =
  Program.make ~name:"DR;IR" ~vars
    ~actions:
      [ copy_action ~based_on:"IR1" ~guard:(Pred.and_ out_bot dr_witness) "DR1" "x" ]

(* ------------------------------------------------------------------ *)
(* CR — the corrector, with correction and witness predicate           *)
(* out = uncor.                                                        *)
(* ------------------------------------------------------------------ *)

let cr_guard src other1 other2 =
  Pred.make
    (Fmt.str "out=bot /\\ (%s sound)" src)
    (fun st ->
      Value.equal (v st "out") Value.bot
      && (Value.equal (v st src) (v st other1)
         || Value.equal (v st src) (v st other2)))

let corrector_actions =
  [
    copy_action ~guard:(cr_guard "y" "z" "x") "CR1" "y";
    copy_action ~guard:(cr_guard "z" "x" "y") "CR2" "z";
  ]

let corrector = Corrector.of_invariant out_is_uncor

(* DR;IR [] CR — the full TMR program (masking). *)
let masking =
  Program.add_actions failsafe corrector_actions
  |> Program.with_name "DR;IR[]CR"
