(* The seed list-based exploration engine: map-keyed interning and plain
   FIFO breadth-first expansion, with no layout and no domain checks.

   It is the oracle of the engine differential suites.  It explores
   initial states in [State.compare] order and expands states in id
   order, so on a program that stays inside its declared domains it must
   number states, edges and initials exactly as [Ts] does.  A program
   that leaves them is explored anyway, and [escape] predicts the located
   error the production engine raises instead. *)

open Detcor_kernel
open Detcor_semantics

module State_table = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

let build ?(limit = Ts.default_limit) program ~from =
  let actions = Program.actions program in
  let index = State_table.create 1024 in
  let pending = Queue.create () in
  let states = ref [] in
  let count = ref 0 in
  let intern st =
    match State_table.find_opt index st with
    | Some i -> i
    | None ->
      if !count >= limit then raise (Ts.Too_large limit);
      let i = !count in
      State_table.add index st i;
      incr count;
      states := st :: !states;
      Queue.add st pending;
      i
  in
  let initials = List.map intern (List.sort_uniq State.compare from) in
  (* Expansion in discovery order is id order: every new state receives
     the next id and joins the back of the queue. *)
  let edges = ref [] in
  let row_ends = ref [ 0 ] in
  let count_edges = ref 0 in
  while not (Queue.is_empty pending) do
    let st = Queue.pop pending in
    List.iteri
      (fun aid ac ->
        List.iter
          (fun st' ->
            edges := (aid, intern st') :: !edges;
            incr count_edges)
          (Action.execute ac st))
      actions;
    row_ends := !count_edges :: !row_ends
  done;
  let edges = Array.of_list (List.rev !edges) in
  Ts.assemble program
    ~states:(Array.of_list (List.rev !states))
    ~row_ptr:(Array.of_list (List.rev !row_ends))
    ~edge_action:(Array.map fst edges)
    ~edge_target:(Array.map snd edges)
    ~initials
    ~lookup:(State_table.find_opt index)

let full ?(limit = Ts.default_limit) program =
  if Program.space_size program > limit then raise (Ts.Too_large limit);
  build ~limit program ~from:(Program.states program)

let of_pred ?limit program ~from =
  build ?limit program ~from:(List.filter (Pred.holds from) (Program.states program))

(* The message of the located error [Ts] raises on the same exploration,
   if it leaves the declared domains: the production engine packs every
   successor in (source id, edge) order and stops at the first that does
   not fit, and up to that edge both engines number identically. *)
let escape ts =
  let layout = Layout.compile (Ts.program ts) in
  let located i (aid, j) =
    match Layout.pack layout (Ts.state ts j) with
    | _ -> None
    | exception Layout.Unrepresentable e -> (
      try
        Ts.escape_error
          ~action:(Action.name (Ts.action ts aid))
          ~src:(Ts.state ts i) e
      with
      | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error { msg })
        ->
        Some msg)
  in
  let rec scan i =
    if i >= Ts.num_states ts then None
    else
      match List.find_map (located i) (Ts.edges_of ts i) with
      | Some msg -> Some msg
      | None -> scan (i + 1)
  in
  scan 0
