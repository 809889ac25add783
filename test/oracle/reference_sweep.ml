(* The full product walk that [Layout.sweep] replaced: every rank of the
   product, in order, tested on the complete state through one scratch
   buffer.  It never evaluates the test on a partial view, so it is the
   oracle of the pruned backtracking sweep: on every test that is a
   deterministic function of the values it reads, both must hand [f]
   the same (rank, state) sequence and stop on the same first
   exception. *)

open Detcor_kernel
open Detcor_semantics

let sweep layout test f =
  let n = Layout.num_vars layout in
  let vars = Array.init n (Layout.var layout) in
  let domains =
    Array.init n (fun k -> Array.of_list (Layout.domain_values layout k))
  in
  let sc = State.scratch_create vars in
  let rank = ref 0 in
  let rec go k =
    if k = n then begin
      Detcor_robust.Budget.tick ();
      if test (State.scratch_view sc) then f !rank sc;
      incr rank
    end
    else
      Array.iter
        (fun v ->
          State.scratch_set sc k v;
          go (k + 1))
        domains.(k)
  in
  go 0
