(* One BENCH_*.json and the checks that guard it.  A section records every
   pass/fail check with [gate] and ends with [finish], which always writes
   the file — meta stamp, the section's fields, then a "gates" object with
   each gate's value and the "failed" list — and then exits 1 if any gate
   failed, so a failing run still leaves its numbers on disk. *)

module J = Telemetry.Jsonx

(* Domain counts swept by the parallel sections; --domains overrides. *)
let domains : int list ref = ref [ 1; 2; 4 ]

let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* Run metadata, so the perf trajectory is comparable across commits and
   machines. *)
let meta () =
  J.obj
    [
      ("commit", J.str (Lazy.force git_commit));
      ("ocaml_version", J.str Sys.ocaml_version);
      ("domains", J.arr (List.map J.int !domains));
      ("host_cores", J.int (Domain.recommended_domain_count ()));
    ]

type t = {
  path : string;
  grid : string;
  mutable gates : (string * string) list;
  mutable failed : string list;
}

let create ~grid path = { path; grid; gates = []; failed = [] }

(* [value] is what "gates" records under [name]; the verdict by default. *)
let gate g ?value name ok detail =
  Printf.printf "gate %-38s %s  (%s)\n" name (if ok then "PASS" else "FAIL")
    detail;
  g.gates <- (name, Option.value value ~default:(string_of_bool ok)) :: g.gates;
  if not ok then g.failed <- name :: g.failed

let finish g fields =
  let failed = List.rev g.failed in
  let gates = List.rev (("failed", J.arr (List.map J.str failed)) :: g.gates) in
  let oc = open_out g.path in
  output_string oc
    (J.obj
       ((("grid", J.str g.grid) :: ("meta", meta ()) :: fields)
       @ [ ("gates", J.obj gates) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "(written to %s)\n" g.path;
  if failed <> [] then begin
    Printf.eprintf "%s: %d gate(s) failed: %s\n" g.path (List.length failed)
      (String.concat "; " failed);
    exit 1
  end

(* --- shared utilities ----------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1000.0 *. (Unix.gettimeofday () -. t0))

(* [f ()] returns a result and a measurement: keep the last result and the
   smallest measurement over [repeat] (>= 1) runs. *)
let best_of ~repeat f =
  let rec go i (v, best) =
    if i >= repeat then (v, best)
    else
      let v', m = f () in
      go (i + 1) (v', Float.min best m)
  in
  go 1 (f ())

(* [best_of] for two measurements compared as a ratio, taken alternately
   (a, b, a, b, ...) so that a change of load on the host reaches both
   sides rather than one whole block of runs. *)
let best_of_interleaved ~repeat fa fb =
  let rec go i ((va, ba), (vb, bb)) =
    if i >= repeat then ((va, ba), (vb, bb))
    else
      let va', ma = fa () in
      let vb', mb = fb () in
      go (i + 1) ((va', Float.min ba ma), (vb', Float.min bb mb))
  in
  let a = fa () in
  go 1 (a, fb ())

let rec rmtree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> rmtree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
