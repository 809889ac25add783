(* Resident-set readings of the calling process, from Linux procfs.

   [reset_peak] writes 5 to /proc/self/clear_refs, which sets VmHWM back to
   the current VmRSS; the next [peak_kb] is then the high-water mark since
   the reset, not since process start. *)

(* "VmHWM:\t  13664 kB" -> Some 13664 when [field] = "VmHWM". *)
let parse_kb_line ~field line =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  if String.length line < n || String.sub line 0 n <> prefix then None
  else
    match
      String.split_on_char ' '
        (String.map (fun c -> if c = '\t' then ' ' else c)
           (String.sub line n (String.length line - n)))
      |> List.filter (( <> ) "")
    with
    | [ v; "kB" ] -> int_of_string_opt v
    | _ -> None

let status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match parse_kb_line ~field line with Some v -> Some v | None -> scan ())
    in
    scan ()

let peak_kb () = status_kb "VmHWM"
let current_kb () = status_kb "VmRSS"

let reset_peak () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
    match
      output_string oc "5";
      close_out oc
    with
    | () -> true
    | exception Sys_error _ -> false)
