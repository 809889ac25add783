(* Checks of the per-layer peak-RSS reader.  Silent on success. *)

module R = Pipebench_rss

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let expect_parse line field want =
  let got = R.parse_kb_line ~field line in
  if got <> want then
    fail "parse_kb_line %S %S: got %s" field line
      (match got with Some v -> string_of_int v | None -> "None")

let () =
  expect_parse "VmHWM:\t   13664 kB" "VmHWM" (Some 13664);
  expect_parse "VmRSS:\t 7 kB" "VmRSS" (Some 7);
  expect_parse "VmRSS:\t 7 kB" "VmHWM" None;
  expect_parse "VmHWM:" "VmHWM" None;
  expect_parse "VmHWM:\t 12 MB" "VmHWM" None;
  expect_parse "VmHWMx:\t 12 kB" "VmHWM" None

(* A 64 MiB block touched after a reset must raise the peak by about its
   size; a second reset must bring the peak back near the current RSS. *)
let () =
  match (R.peak_kb (), R.current_kb ()) with
  | None, _ | _, None -> () (* no procfs: nothing to read *)
  | Some _, Some _ ->
    if R.reset_peak () then begin
      let base = Option.get (R.current_kb ()) in
      let block = Bytes.make (64 * 1024 * 1024) 'x' in
      let peak = Option.get (R.peak_kb ()) in
      if peak < base + (60 * 1024) then
        fail "peak %d kB after touching 64 MiB over %d kB" peak base;
      ignore (Sys.opaque_identity (Bytes.get block 0));
      if not (R.reset_peak ()) then fail "second reset_peak failed";
      let peak' = Option.get (R.peak_kb ()) and cur = Option.get (R.current_kb ()) in
      if peak' > cur + 1024 then
        fail "peak %d kB not reset to current %d kB" peak' cur
    end
