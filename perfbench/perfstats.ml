(* Pure helpers of the benchmark: order statistics, the busy-round
   classification of serve hook events, and the outcome digest.  Kept
   apart from the workloads so [main.exe selftest] can check them. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Perfstats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail percentile the sample supports: p99 by nearest rank, moved
   down until at least [beyond] samples lie strictly above the reported
   one.  At n >= 1000 (beyond = 10) that is exactly p99.  Returns the
   value and the percentile actually reported (rank / n). *)
let tail ?(target = 0.99) ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then invalid_arg "Perfstats.tail: too few samples";
  let rank = min (int_of_float (Float.ceil (target *. float_of_int n))) (n - beyond) in
  let rank = max 1 rank in
  (a.(rank - 1), float_of_int rank /. float_of_int n)

type event = Step_start of float | Window_closed of float

(* Busy-round latencies from the service hook's event stream, in firing
   order.  A round runs from its [Step_start] to the next one; the last
   round, which has no successor, ends at its last window close.  Only
   rounds that closed at least one window (a busy round under
   [sync = Always]) are kept; idle rounds write nothing and close
   nothing. *)
let busy_rounds events =
  let rec go acc = function
    | [] -> List.rev acc
    | Window_closed _ :: rest -> go acc rest
    | Step_start t0 :: rest ->
        let rec scan last_close = function
          | (Step_start t1 :: _) as next ->
              let acc = if last_close <> None then (t1 -. t0) :: acc else acc in
              go acc next
          | Window_closed t :: more -> scan (Some t) more
          | [] -> (
              match last_close with
              | Some t -> List.rev ((t -. t0) :: acc)
              | None -> List.rev acc)
        in
        scan None rest
  in
  go [] events

let last_window_close events =
  List.fold_left
    (fun acc -> function Window_closed t -> Some t | Step_start _ -> acc)
    None events

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* Everything a recovery must reproduce bit for bit: aggregate cost
   bits, co-flushes and rounds, and per tenant its steps, cost bits and
   SLO violations. *)
let digest (o : Serve.Service.outcome) =
  String.concat ","
    (bits o.aggregate_charged :: bits o.aggregate_undiscounted
    :: string_of_int o.co_flushes :: string_of_int o.rounds
    :: List.concat_map
         (fun (t : Serve.Service.tenant_outcome) ->
           [
             t.tenant;
             string_of_int t.steps;
             bits t.metered_cost;
             bits t.charged_cost;
             string_of_int t.violations;
           ])
         o.tenants)

(* --- self-tests --------------------------------------------------------- *)

let selftest () =
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "selftest FAIL: %s\n" name
    end
  in
  let range n = List.init n (fun i -> float_of_int (i + 1)) in
  check "median odd" (median [ 3.; 1.; 2. ] = 2.);
  check "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  let v, p = tail (range 1000) in
  check "p99 at 1000 samples" (v = 990. && p = 0.99);
  let v, p = tail (range 2000) in
  check "p99 at 2000 samples" (v = 1980. && p = 0.99);
  let v, p = tail ~target:0.95 (range 2000) in
  check "p95 at 2000 samples" (v = 1900. && p = 0.95);
  let v, p = tail (range 500) in
  check "tail at 500 keeps 10 beyond" (v = 490. && p = 0.98);
  let v, _ = tail (range 11) in
  check "tail at 11 keeps 10 beyond" (v = 1.);
  check "tail refuses 10 samples"
    (match tail (range 10) with _ -> false | exception Invalid_argument _ -> true);
  List.iter
    (fun n ->
      let v, _ = tail (range n) in
      let beyond = List.length (List.filter (fun x -> x > v) (range n)) in
      check (Printf.sprintf "tail at %d has >= 10 beyond" n) (beyond >= 10))
    [ 11; 37; 999; 1000; 1001; 5000 ];
  let ev =
    [
      Step_start 0.0; Window_closed 0.5;
      Step_start 1.0;
      Step_start 2.0; Window_closed 2.25; Window_closed 2.5;
      Step_start 3.0; Window_closed 3.75;
    ]
  in
  check "busy rounds skip idle, last ends at its close"
    (busy_rounds ev = [ 1.0; 1.0; 0.75 ]);
  check "trailing idle round dropped"
    (busy_rounds [ Step_start 0.0; Window_closed 0.1; Step_start 1.0 ] = [ 1.0 ]);
  check "no events, no rounds" (busy_rounds [] = []);
  check "last window close" (last_window_close ev = Some 3.75);
  let tenant name cost violations =
    {
      Serve.Service.tenant = name;
      steps = 10;
      metered_cost = cost;
      charged_cost = cost;
      violations;
      violation_rate = 0.0;
      sheds = 0;
      reanchors = 0;
      consistent = true;
      replayed = 0;
    }
  in
  let outcome tenants =
    {
      Serve.Service.tenants;
      rounds = 10;
      aggregate_charged = 1.5;
      aggregate_undiscounted = 2.0;
      co_flushes = 3;
      worst_violation_rate = 0.0;
      rejected = 0;
      queued_peak = 0;
    }
  in
  let a = outcome [ tenant "a" 1.0 0; tenant "b" 2.0 1 ] in
  check "digest equal on equal outcomes"
    (digest a = digest (outcome [ tenant "a" 1.0 0; tenant "b" 2.0 1 ]));
  check "digest sees a cost bit"
    (digest a <> digest (outcome [ tenant "a" (Float.succ 1.0) 0; tenant "b" 2.0 1 ]));
  check "digest sees a violation"
    (digest a <> digest (outcome [ tenant "a" 1.0 0; tenant "b" 2.0 2 ]));
  check "digest sees co-flushes" (digest a <> digest { a with co_flushes = 4 });
  check "digest sees rounds" (digest a <> digest { a with rounds = 11 });
  check "digest ignores replay count"
    (digest a = digest (outcome [ { (tenant "a" 1.0 0) with replayed = 7 }; tenant "b" 2.0 1 ]));
  !failures = 0
