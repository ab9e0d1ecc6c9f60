(* The repository benchmark: three workloads, each measured from outside
   through what the program already exposes (the serve hook, telemetry
   counters and the [maintainer.process] span, and timed calls to public
   functions).  See README.md for the workloads, the metric map and why
   end-to-end times are process CPU time scaled by a host-speed probe.

     main.exe --workload serve-dense|serve-fleet|plan-astar --seed N
              --seconds S --trace 0|1
     main.exe selftest

   The last line of standard output is the JSON result. *)

(* --- bookkeeping: operations attempted / failed -------------------------- *)

let attempted = ref 0
let failed = ref 0

let attempt () = incr attempted

(* A failed gate fails the operation it guards (a tenant, a recovery, a
   plan) and with it the run. *)
let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failed;
        Printf.printf "GATE FAILED: %s\n%!" msg
      end)
    fmt

let same_across_runs what first x =
  gate (first = x) "%s differs between repetitions of one seed" what;
  if first <> x then Printf.printf "  was: %s\n  now: %s\n" first x

(* --- clocks ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(* Process CPU time, all domains together. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

type span = { wall : float; cpu : float }

let timed_call f =
  let w0 = now () and c0 = cpu_now () in
  let v = f () in
  let c1 = cpu_now () and w1 = now () in
  (v, { wall = w1 -. w0; cpu = c1 -. c0 })

(* [timed_call] from a freshly collected heap. *)
let measure f =
  Gc.full_major ();
  timed_call f

let add a b = { wall = a.wall +. b.wall; cpu = a.cpu +. b.cpu }
let zero = { wall = 0.0; cpu = 0.0 }

(* Host speed.  On a shared VM the CPU time of the same work drifts by a
   fifth over minutes, and every CPU metric of a run moves with it.  A
   fixed stdlib-only workload (integer arithmetic, hashing, sorting,
   allocation), which no change to the repository can speed up, is timed
   after every repetition; a run scales its CPU times by
   [probe_nominal_s /. median probe] (and its rates by the inverse), so it
   reports what it would have measured on a host where the probe takes
   [probe_nominal_s].  The raw times and the factor are printed. *)
let probe_nominal_s = 0.02

let probe () =
  let c0 = cpu_now () in
  let acc = ref 0 in
  for i = 1 to 4_000_000 do
    acc := !acc lxor (i * 7)
  done;
  let st = Random.State.make [| 17 |] in
  let table = Hashtbl.create 1024 in
  for i = 1 to 20_000 do
    Hashtbl.replace table (Random.State.int st 1_000_000) i
  done;
  List.init 20_000 (fun _ -> Random.State.int st 1_000_000)
  |> List.sort compare
  |> List.iter (fun k ->
         match Hashtbl.find_opt table k with Some v -> acc := !acc + v | None -> ());
  let cells = ref [] in
  for i = 1 to 300_000 do
    cells := (i, float_of_int i) :: !cells;
    if i mod 1000 = 0 then cells := []
  done;
  ignore (Sys.opaque_identity (!acc, !cells));
  cpu_now () -. c0

(* --- scratch directory ---------------------------------------------------- *)

let scratch = ".perfbench_scratch"

let rec rmtree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rmtree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let fresh_dir name =
  let dir = Filename.concat scratch name in
  rmtree dir;
  if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
  dir

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- result line ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed body

(* Every per-layer metric, in output order.  A workload reports each one;
   a layer it never reaches reads 0. *)
let per_layer =
  [
    ("ivm.process_s", "s"); ("ivm.batches", "count"); ("ivm.batch_rows_mean", "rows");
    ("serve.run_s", "s"); ("serve.run_cpu_s", "s"); ("serve.finish_s", "s");
    ("serve.other_s", "s"); ("serve.busy_rounds", "count");
    ("serve.idle_rounds", "count"); ("serve.window_closes", "count");
    ("serve.forced_closes", "count"); ("serve.replay_s", "s");
    ("serve.register_ms_p50", "ms"); ("durable.appends", "count");
    ("durable.commits", "count"); ("durable.fsyncs", "count");
    ("durable.log_bytes_per_mod", "bytes"); ("durable.log_write_s", "s");
    ("durable.window_close_ms_p50", "ms"); ("durable.read_s", "s");
    ("gc.alloc_mb", "MiB"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("astar.expanded", "count");
    ("astar.generated", "count"); ("astar.pruned", "count");
    ("astar.messages", "count"); ("astar.live_peak", "count");
    ("plan.small_s", "s"); ("plan.large_s", "s"); ("plan.seq_s", "s");
    ("trace.overhead_pct", "%"); ("wall.mods_per_s", "mods/s");
    ("wall.round_ms_p50", "ms"); ("wall.recover_s", "s");
  ]

let layers measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then invalid_arg ("unknown layer metric " ^ name))
    measured;
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0.0 (List.assoc_opt name measured)))
    per_layer

let counter snap name = Telemetry.Metrics.value snap name

let histogram_mean snap name =
  match Telemetry.Metrics.find snap name with
  | Some s when s.sample_count > 0 -> s.sample_value /. float_of_int s.sample_count
  | _ -> 0.0

(* The layer counters every traced pass reads from telemetry; a layer the
   workload never calls stays at 0. *)
let telemetry_layers snap =
  [
    ("ivm.batches", counter snap "maintainer.batches");
    ("ivm.batch_rows_mean", histogram_mean snap "maintainer.batch_size");
    ("durable.appends", counter snap "durable.appends");
    ("durable.commits", counter snap "durable.commits");
    ("durable.fsyncs", counter snap "durable.fsyncs");
    ("astar.expanded", counter snap "astar.expanded");
    ("astar.generated", counter snap "astar.generated");
    ("astar.pruned", counter snap "astar.pruned");
    ("astar.messages", counter snap "astar.messages");
    ("astar.live_peak", counter snap "astar.live_peak");
  ]

let gc_layers (before : Gc.stat) (after : Gc.stat) =
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  [
    ( "gc.alloc_mb",
      (words after -. words before) *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
    ("gc.minor_collections", float_of_int (after.minor_collections - before.minor_collections));
    ("gc.major_collections", float_of_int (after.major_collections - before.major_collections));
  ]

(* Run [f] with telemetry on, returning its value, the counters it booked
   and the summed duration of its [maintainer.process] spans. *)
let traced f =
  let lock = Mutex.create () in
  let process_s = ref 0.0 in
  Telemetry.enable
    ~sinks:
      [
        Telemetry.Sink.make (fun (span : Telemetry.Span.t) ->
            if span.name = "maintainer.process" then begin
              Mutex.lock lock;
              process_s := !process_s +. span.duration;
              Mutex.unlock lock
            end);
      ]
    ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let v = f () in
      (v, Telemetry.snapshot (), !process_s))

type 'a repeated = {
  reps : 'a list;
  rss : float;
      (** peak RSS once [min] repetitions are done: repeated parallel A*
          solves grow the heap pass by pass, so the peak at the end of the
          run would depend on how many repetitions the host allowed *)
  speed : float;  (** [probe_nominal_s /. median probe]; scales CPU times *)
}

(* Repeat [f] until [seconds] have passed and at least [min] repetitions
   are in, checking that [key] repeats exactly and probing the host's
   speed after each repetition. *)
let repeat ~min ~seconds f ~key =
  let deadline = now () +. float_of_int seconds in
  let rss = ref nan and probes = ref [] in
  let rec loop acc =
    if List.length acc = min then rss := peak_rss_mb ();
    if List.length acc >= min && now () >= deadline then begin
      let median = Perfstats.median !probes in
      Printf.printf "host speed: median probe %.5f s cpu over %d probes, factor %.4f\n"
        median (List.length !probes) (probe_nominal_s /. median);
      { reps = List.rev acc; rss = !rss; speed = probe_nominal_s /. median }
    end
    else begin
      let r = f () in
      (match acc with
      | prev :: _ -> same_across_runs "exact outcome" (key prev) (key r)
      | [] -> ());
      probes := probe () :: !probes;
      loop (r :: acc)
    end
  in
  loop []

(* --- serve workloads ------------------------------------------------------- *)

type serve_workload = {
  configs : seed:int -> Serve.Tenant.config list;
  domains : int;
  min_repetitions : int;
}

(* Eight tenants, half of them higher-order, with dense Poisson arrivals
   on both tables (about 3600 inserts per table over the horizon, so the
   4000-row base tables stay larger than a run's inserts and round cost
   stays close to stationary).  The budget admits batches of about 150
   rows: every round is busy and the relation/ivm kernels and the delta
   views carry the work. *)
let serve_dense =
  let rows = 4000 and horizon = 300 in
  {
    configs =
      (fun ~seed ->
        List.init 8 (fun i ->
            {
              Serve.Tenant.name = Printf.sprintf "dense%d" i;
              seed = (seed * 1000) + (10 * i);
              rows;
              horizon;
              limit_factor = 25.0;
              streams = [ "poisson:12"; "poisson:12" ];
              order =
                (if i mod 2 = 0 then Ivm.Viewdef.Higher_order
                 else Ivm.Viewdef.First_order);
              sync = None;
            }));
    domains = 2;
    min_repetitions = 4;
  }

(* Forty-eight small first-order tenants whose on/off streams burst
   together, so about three rounds in four are idle; two tenants force a
   window close at each of their commits.  Stresses the fixed costs of a
   round rather than the work it carries. *)
let serve_fleet =
  let rows = 1000 and horizon = 800 in
  {
    configs =
      (fun ~seed ->
        List.init 48 (fun i ->
            {
              Serve.Tenant.name = Printf.sprintf "fleet%02d" i;
              seed = (seed * 1000) + (10 * i);
              rows;
              horizon;
              limit_factor = 1.5;
              streams = [ "onoff:2,6,2"; "onoff:2,6,1" ];
              order = Ivm.Viewdef.First_order;
              sync = (if i < 2 then Some Durable.Wal.Always else None);
            }));
    domains = 2;
    min_repetitions = 5;
  }

let service_config ~tenants ~hook =
  {
    Serve.Service.default_config with
    admission =
      {
        Serve.Admission.max_active = tenants;
        max_queued = tenants;
        max_delta_entries = max_int;
      };
    coordinate = true;
    discount_factor = 0.8;
    sync = Durable.Wal.Always;
    wal_mode = Serve.Service.Grouped;
    scheduler = Serve.Service.Event;
    hook;
  }

type serve_repetition = {
  setup : span;
  register_ms : float list;  (** wall, per tenant *)
  run : span;
  busy_cpu_ms : float list;
  busy_wall_ms : float list;
  finish_s : float;  (** wall, last window close to [run] returning *)
  rounds : int;
  idle_rounds : int;
  window_closes : int;
  forced_closes : int;
  mods : int;
  maint_cost : float;
  steps : int;
  violations : int;
  log_bytes : int;
  read_s : float;  (** wall *)
  recover : span;
  digest : string;
  records : (string * Durable.Record.t list) list;  (** traced only *)
  layers : (string * float) list;  (** GC, and telemetry when traced *)
  process_s : float;  (** summed [maintainer.process] spans; traced only *)
}

(* One full cycle on a freshly removed root: create + register (set-up),
   [Service.run] (hook events recorded on both clocks), then read the
   finished log and recover the root, checking every gate. *)
let serve_once ?pool ?(trace = false) (w : serve_workload) ~seed =
  let root = fresh_dir "serve" in
  let configs = w.configs ~seed in
  let lock = Mutex.create () in
  let events = ref [] in
  let record step =
    let e = (step, now (), cpu_now ()) in
    Mutex.lock lock;
    events := e :: !events;
    Mutex.unlock lock
  in
  let hook = function
    | Durable.Hook.Step_start _ -> record true
    | Durable.Hook.Window_closed _ -> record false
    | _ -> ()
  in
  let (svc, register_ms), setup =
    measure (fun () ->
        let svc =
          Serve.Service.create ?pool ~root
            (service_config ~tenants:(List.length configs) ~hook)
        in
        ( svc,
          List.map
            (fun cfg ->
              attempt ();
              let r0 = now () in
              let ok =
                match Serve.Service.register svc cfg with
                | Ok Serve.Admission.Admit -> true
                | Ok _ | Error _ -> false
              in
              gate ok "tenant %s admitted" cfg.Serve.Tenant.name;
              1000.0 *. (now () -. r0))
            configs ))
  in
  let run_end = ref 0.0 in
  let timed_run () =
    measure (fun () ->
        let gc_before = Gc.quick_stat () in
        let o = Serve.Service.run svc in
        run_end := now ();
        (o, gc_layers gc_before (Gc.quick_stat ())))
  in
  let ((outcome, gc), run), snap, process_s =
    if trace then traced timed_run else (timed_run (), [], 0.0)
  in
  let events = List.rev !events in
  let on clock =
    List.map
      (fun (step, wall, cpu) ->
        let t = 1000.0 *. clock (wall, cpu) in
        if step then Perfstats.Step_start t else Perfstats.Window_closed t)
      events
  in
  let wall_events = on fst in
  List.iter
    (fun (t : Serve.Service.tenant_outcome) ->
      gate t.consistent "tenant %s finished consistent" t.tenant)
    outcome.tenants;
  gate (List.length outcome.tenants = List.length configs) "every tenant finished";
  let d0 = now () in
  let records =
    match Durable.Groupwal.read ~dir:(Filename.concat root "groupwal") with
    | Ok r -> r
    | Error e ->
        gate false "group log readable: %s" e;
        []
  in
  let read_s = now () -. d0 in
  let mods =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left
          (fun acc -> function Durable.Record.Arrival _ -> acc + 1 | _ -> acc)
          acc rs)
      0 records
  in
  let log_bytes = du root in
  attempt ();
  let recovered, recover = measure (fun () -> Serve.Service.recover ?pool ~root ()) in
  let digest = Perfstats.digest outcome in
  (match recovered with
  | Error e -> gate false "recover: %s" e
  | Ok svc2 ->
      let o2 = Serve.Service.run svc2 in
      gate (Perfstats.digest o2 = digest) "recovered digest equals the live one";
      gate
        (List.for_all (fun (t : Serve.Service.tenant_outcome) -> t.consistent) o2.tenants)
        "recovered tenants consistent");
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 outcome.tenants in
  {
    setup;
    register_ms;
    run;
    busy_cpu_ms = Perfstats.busy_rounds (on snd);
    busy_wall_ms = Perfstats.busy_rounds wall_events;
    finish_s =
      (match Perfstats.last_window_close wall_events with
      | Some t -> !run_end -. (t /. 1000.0)
      | None -> run.wall);
    rounds = Serve.Service.rounds svc;
    idle_rounds = Serve.Service.idle_rounds svc;
    window_closes = Serve.Service.window_closes svc;
    forced_closes = Serve.Service.forced_closes svc;
    mods;
    maint_cost =
      List.fold_left
        (fun acc (t : Serve.Service.tenant_outcome) -> acc +. t.metered_cost)
        0.0 outcome.tenants;
    steps = sum (fun t -> t.steps);
    violations = sum (fun t -> t.violations);
    log_bytes;
    read_s;
    recover;
    digest;
    records = (if trace then records else []);
    layers = (if trace then telemetry_layers snap else []) @ gc;
    process_s;
  }

(* The exact fingerprint of a repetition: everything that must repeat bit
   for bit across repetitions and domain counts of one seed.  Window
   closes are left out because at domains > 1 they depend on the
   interleaving: when a forcing tenant commits last in a round it empties
   the window and the round-end close has nothing to write, and a forced
   close is skipped when the commit that forces it also rotates the
   segment (the rotation has already flushed the window).  Both counts,
   and the fsync count, are exact at domains 1. *)
let exact_key r =
  Printf.sprintf "mods %d, log bytes %d, rounds %d, idle %d, digest %s" r.mods
    r.log_bytes r.rounds r.idle_rounds r.digest

let mods_per_cpu_s r = float_of_int r.mods /. r.run.cpu

(* Latency tails are reported at p95.  Above it sit clusters of outliers
   whose share of busy rounds is close to 1% — each repetition's final
   horizon flush (0.3% of serve-dense rounds, ~500 ms against a 1.5 ms
   median) and about 1.5% of serve-fleet's rounds at 25-90 ms against a
   1 ms median — so p99 flips between them and the ordinary heavy rounds
   from run to run.  The tail-rule percentile is still printed. *)
let end_to_end_of_serve { reps; rss; speed } =
  let first = List.hd reps in
  let pooled f = List.concat_map f reps in
  let busy = pooled (fun r -> r.busy_cpu_ms) in
  let p95, _ = Perfstats.tail ~target:0.95 busy in
  let p99, pct = Perfstats.tail busy in
  let wall_busy = pooled (fun r -> r.busy_wall_ms) in
  Printf.printf
    "samples: %d repetitions of %d rounds (%d idle); %d busy rounds pooled; \
     busy round cpu p%.1f %.3f ms\n"
    (List.length reps) first.rounds first.idle_rounds (List.length busy) (100.0 *. pct) p99;
  Printf.printf
    "per repetition: %d mods, %d log bytes, %d window closes (%d forced), %d \
     SLO violations over %d tenant-steps\n"
    first.mods first.log_bytes first.window_closes first.forced_closes
    first.violations first.steps;
  List.iter
    (fun r ->
      Printf.printf
        "repetition: run %.4f s wall / %.4f s cpu, recover %.4f / %.4f, setup \
         %.4f / %.4f\n"
        r.run.wall r.run.cpu r.recover.wall r.recover.cpu r.setup.wall r.setup.cpu)
    reps;
  let median f = Perfstats.median (List.map f reps) in
  let wall_tail, wall_pct = Perfstats.tail wall_busy in
  Printf.printf
    "wall clock: %.0f mods/s, busy round p50 %.3f ms, p%.1f %.3f ms, recover \
     %.4f s\n"
    (median (fun r -> float_of_int r.mods /. r.run.wall))
    (Perfstats.median wall_busy) (100.0 *. wall_pct) wall_tail
    (median (fun r -> r.recover.wall));
  [
    ("mods_per_cpu_s", "mods/cpu-s", median mods_per_cpu_s /. speed);
    ("round_cpu_ms_p50", "ms", speed *. Perfstats.median busy);
    ("round_cpu_ms_p95", "ms", speed *. p95);
    ("recover_cpu_s", "s", speed *. median (fun r -> r.recover.cpu));
    ("setup_s", "s", speed *. median (fun r -> r.setup.cpu));
    ("maint_cost", "units", first.maint_cost);
    ( "slo_met_pct",
      "%",
      100.0 *. (1.0 -. (float_of_int first.violations /. float_of_int first.steps)) );
    ("peak_rss_mb", "MiB", rss);
  ]

(* Feed the finished root's records back through a fresh group log in a
   scratch directory, round by round (each tenant's arrivals, commit,
   its applied batches, commit; then the round's window close), under
   the tenants' own forcing policies.  Wall seconds of the whole replay
   and the median window close in ms. *)
let groupwal_probe (w : serve_workload) ~seed records =
  let dir = fresh_dir "probe" in
  let configs = w.configs ~seed in
  let t0 = now () in
  let gw = Durable.Groupwal.open_ ~dir () in
  let tenants =
    List.map
      (fun (cfg : Serve.Tenant.config) ->
        let rs = Option.value ~default:[] (List.assoc_opt cfg.name records) in
        (Durable.Groupwal.attach gw ~tenant:cfg.name ?policy:cfg.sync (), ref rs))
      configs
  in
  let time_of = function
    | Durable.Record.Arrival { time; _ } | Durable.Record.Applied { time; _ } -> time
  in
  let is_arrival = function Durable.Record.Arrival _ -> true | _ -> false in
  let horizon =
    List.fold_left (fun acc (c : Serve.Tenant.config) -> max acc c.horizon) 0 configs
  in
  let closes = ref [] in
  for round = 0 to horizon do
    List.iter
      (fun (handle, rest) ->
        let rec take kind =
          match !rest with
          | r :: more when time_of r = round && kind r ->
              Durable.Groupwal.append handle r;
              rest := more;
              take kind
          | _ -> ()
        in
        take is_arrival;
        Durable.Groupwal.commit handle;
        take (fun _ -> true);
        Durable.Groupwal.commit handle)
      tenants;
    let c0 = now () in
    if Durable.Groupwal.close_window gw then
      closes := (1000.0 *. (now () -. c0)) :: !closes
  done;
  Durable.Groupwal.close gw;
  let write_s = now () -. t0 in
  gate (List.for_all (fun (_, rest) -> !rest = []) tenants) "probe replayed every record";
  rmtree dir;
  (write_s, if !closes = [] then 0.0 else Perfstats.median !closes)

(* After a warm-up: one untraced repetition at the workload's domain
   count (the wall-clock view and the tracing-overhead base), one traced
   at the same count, and one traced at domains 1, whose wall-clock layer
   times reconcile with its run: ivm.process + serve.finish + serve.other
   = serve.run. *)
let run_serve_traced ~pool w ~seed =
  ignore (serve_once ~pool w ~seed);
  let untraced = serve_once ~pool w ~seed in
  let par = serve_once ~pool ~trace:true w ~seed in
  let seq = serve_once ~trace:true w ~seed in
  same_across_runs "exact outcome (traced)" (exact_key untraced) (exact_key par);
  same_across_runs "exact outcome (domains 1)" (exact_key par) (exact_key seq);
  let counts r =
    List.filter_map
      (fun n -> Option.map string_of_float (List.assoc_opt n r.layers))
      [ "ivm.batches"; "durable.appends"; "durable.commits" ]
    |> String.concat ","
  in
  same_across_runs
    (Printf.sprintf "layer counts at domains %d and 1" w.domains)
    (counts par) (counts seq);
  let log_write_s, window_close_ms = groupwal_probe w ~seed seq.records in
  let other_s = seq.run.wall -. seq.process_s -. seq.finish_s in
  Printf.printf
    "domains 1 reconciliation (wall): run %.4f s = ivm.process %.4f + \
     serve.finish %.4f + serve.other %.4f; run cpu %.4f s\n"
    seq.run.wall seq.process_s seq.finish_s other_s seq.run.cpu;
  let overhead = 100.0 *. ((mods_per_cpu_s untraced /. mods_per_cpu_s par) -. 1.0) in
  Printf.printf
    "tracing overhead at domains %d: %.1f%% (%.0f mods/cpu-s untraced, %.0f traced)\n"
    w.domains overhead (mods_per_cpu_s untraced) (mods_per_cpu_s par);
  layers
    (seq.layers
    @ [
        ("ivm.process_s", seq.process_s);
        ("serve.run_s", seq.run.wall);
        ("serve.run_cpu_s", seq.run.cpu);
        ("serve.finish_s", seq.finish_s);
        ("serve.other_s", other_s);
        ("serve.busy_rounds", float_of_int (seq.rounds - seq.idle_rounds));
        ("serve.idle_rounds", float_of_int seq.idle_rounds);
        ("serve.window_closes", float_of_int seq.window_closes);
        ("serve.forced_closes", float_of_int seq.forced_closes);
        ("serve.replay_s", seq.recover.wall -. seq.read_s);
        ("serve.register_ms_p50", Perfstats.median seq.register_ms);
        ("durable.log_bytes_per_mod", float_of_int seq.log_bytes /. float_of_int seq.mods);
        ("durable.log_write_s", log_write_s);
        ("durable.window_close_ms_p50", window_close_ms);
        ("durable.read_s", seq.read_s);
        ("trace.overhead_pct", overhead);
        ("wall.mods_per_s", float_of_int untraced.mods /. untraced.run.wall);
        ("wall.round_ms_p50", Perfstats.median untraced.busy_wall_ms);
        ("wall.recover_s", untraced.recover.wall);
      ])

(* --- plan-astar ---------------------------------------------------------- *)

(* A fixed, seeded instance set for the §4.1 planner: many 2-table
   instances (where parallel search pays its start-up cost) and twenty
   each of 4- and 6-table ones (where it pays off).  Costs follow the
   paper's asymmetric pair — a flat scan-like plateau and a linear
   probe — and arrivals are Poisson draws from the seed. *)
type instance = { small : bool; spec : Abivm.Spec.t; mods : int }

let instance_classes = [ (2, 120, 100); (4, 40, 20); (6, 14, 20) ]

let plan_instances ~seed =
  List.concat_map
    (fun (tables, horizon, count) ->
      List.init count (fun j ->
          let costs =
            Array.init tables (fun i ->
                if i mod 2 = 0 then Cost.Func.plateau ~a:1.0 ~cap:6.0
                else Cost.Func.linear ~a:1.5)
          in
          let limit = 3.0 +. (1.5 *. float_of_int tables) in
          let arrivals =
            Workload.Arrivals.generate
              ~seed:((seed * 1000) + (100 * tables) + j)
              ~horizon
              (Array.make tables (Workload.Arrivals.Poisson 1.0))
          in
          let mods = Array.fold_left (Array.fold_left ( + )) 0 arrivals in
          { small = tables = 2; spec = Abivm.Spec.make ~costs ~limit ~arrivals; mods }))
    instance_classes

(* The remaining half of the horizon as its own instance: pending work
   at the midpoint of [plan] rides in with the next step's arrivals.
   This is the re-solve the robustness loop makes on a drift trip; the
   benchmark makes it for the 4- and 6-table instances.
   Returns the suffix instance and the cost the plan spent up to the
   midpoint. *)
let suffix_spec spec plan =
  let horizon = Abivm.Spec.horizon spec in
  let mid = horizon / 2 in
  let _, post = (Abivm.Plan.states spec plan).(mid) in
  let arrivals = Abivm.Spec.arrivals spec in
  let rest =
    Array.init (horizon - mid) (fun k ->
        let row = Array.copy arrivals.(mid + 1 + k) in
        if k = 0 then Array.iteri (fun i p -> row.(i) <- row.(i) + p) post;
        row)
  in
  let prefix =
    List.fold_left
      (fun acc (t, a) -> if t <= mid then acc +. Abivm.Spec.f spec a else acc)
      0.0 (Abivm.Plan.actions plan)
  in
  ( Abivm.Spec.make ~costs:(Abivm.Spec.costs spec) ~limit:(Abivm.Spec.limit spec)
      ~arrivals:rest,
    prefix )

type solve = { inst : instance; result : Abivm.Astar.result; time : span }

type plan_pass = {
  build : span;
  solves : solve list;
  solve : span;  (** summed over the instances *)
  resolve : span;
  costs : string;
  within_c : int * int;  (** pre-horizon steps within C, steps checked *)
}

let plan_pass ~domains ~seed =
  let instances, build = measure (fun () -> plan_instances ~seed) in
  let solves =
    List.map
      (fun inst ->
        attempt ();
        let result, time = timed_call (fun () -> Abivm.Astar.solve ~domains inst.spec) in
        gate (Abivm.Plan.is_valid inst.spec result.plan) "plan valid";
        gate
          (Perfstats.bits (Abivm.Plan.cost inst.spec result.plan) = Perfstats.bits result.cost)
          "Plan.cost bit-equal to the returned cost";
        { inst; result; time })
      instances
  in
  let resolve =
    List.fold_left
      (fun acc s ->
        attempt ();
        let spec, prefix = suffix_spec s.inst.spec s.result.plan in
        let r, time = timed_call (fun () -> Abivm.Astar.solve ~domains spec) in
        let total = prefix +. r.cost in
        gate
          (Float.abs (total -. s.result.cost) <= 1e-9 *. Float.max 1.0 s.result.cost)
          "re-solved suffix completes an optimal plan (%.17g vs %.17g)" total
          s.result.cost;
        add acc time)
      zero
      (List.filter (fun s -> not s.inst.small) solves)
  in
  let within_c =
    List.fold_left
      (fun (ok, n) s ->
        let spec = s.inst.spec in
        let states = Abivm.Plan.states spec s.result.plan in
        let ok = ref ok in
        for t = 0 to Abivm.Spec.horizon spec - 1 do
          if not (Abivm.Spec.is_full spec (snd states.(t))) then incr ok
        done;
        (!ok, n + Abivm.Spec.horizon spec))
      (0, 0) solves
  in
  {
    build;
    solves;
    solve = List.fold_left (fun acc s -> add acc s.time) zero solves;
    resolve;
    costs = String.concat "," (List.map (fun s -> Perfstats.bits s.result.cost) solves);
    within_c;
  }

let plan_mods pass = List.fold_left (fun acc s -> acc + s.inst.mods) 0 pass.solves
let planned_per_cpu_s pass = float_of_int (plan_mods pass) /. pass.solve.cpu

let run_plan_timed ~domains ~seed ~seconds =
  let { reps = passes; rss; speed } =
    repeat ~min:8 ~seconds (fun () -> plan_pass ~domains ~seed) ~key:(fun p -> p.costs)
  in
  let first = List.hd passes in
  List.iter
    (fun p ->
      Printf.printf
        "pass: solve %.4f s wall / %.4f s cpu, re-solve %.4f / %.4f, set-up \
         %.4f / %.4f\n"
        p.solve.wall p.solve.cpu p.resolve.wall p.resolve.cpu p.build.wall p.build.cpu)
    passes;
  let lat =
    List.concat_map (fun p -> List.map (fun s -> 1000.0 *. s.time.cpu) p.solves) passes
  in
  let p95, _ = Perfstats.tail ~target:0.95 lat in
  let p99, pct = Perfstats.tail lat in
  let ok, n = first.within_c in
  let median f = Perfstats.median (List.map f passes) in
  Printf.printf
    "samples: %d passes x %d instances = %d solves; solve cpu p%.1f %.3f ms; \
     %d mods planned per pass\n"
    (List.length passes) (List.length first.solves) (List.length lat) (100.0 *. pct)
    p99 (plan_mods first);
  Printf.printf "wall clock: plan_s %.4f, re-solve %.4f s, %.0f mods planned/s\n"
    (median (fun p -> p.solve.wall))
    (median (fun p -> p.resolve.wall))
    (median (fun p -> float_of_int (plan_mods p) /. p.solve.wall));
  [
    ("mods_per_cpu_s", "mods/cpu-s", median planned_per_cpu_s /. speed);
    ("round_cpu_ms_p50", "ms", speed *. Perfstats.median lat);
    ("round_cpu_ms_p95", "ms", speed *. p95);
    ("recover_cpu_s", "s", speed *. median (fun p -> p.resolve.cpu));
    ("setup_s", "s", speed *. median (fun p -> p.build.cpu));
    ( "maint_cost",
      "units",
      List.fold_left (fun acc s -> acc +. s.result.cost) 0.0 first.solves );
    ("slo_met_pct", "%", 100.0 *. float_of_int ok /. float_of_int n);
    ("peak_rss_mb", "MiB", rss);
  ]

(* After a warm-up: one untraced pass (the wall-clock view and the
   tracing-overhead base), one traced pass at [domains], and the same set
   at domains 1 as the same-run speed-up base. *)
let run_plan_traced ~domains ~seed =
  ignore (plan_pass ~domains ~seed);
  let untraced = plan_pass ~domains ~seed in
  let (par, gc), snap, _ =
    traced (fun () ->
        let before = Gc.quick_stat () in
        let p = plan_pass ~domains ~seed in
        (p, gc_layers before (Gc.quick_stat ())))
  in
  let seq = plan_pass ~domains:1 ~seed in
  same_across_runs "optimal plan costs (traced)" untraced.costs par.costs;
  same_across_runs (Printf.sprintf "plan costs at domains 1 and %d" domains) par.costs seq.costs;
  let class_s small =
    List.fold_left
      (fun acc s -> if s.inst.small = small then acc +. s.time.wall else acc)
      0.0 par.solves
  in
  let overhead = 100.0 *. ((planned_per_cpu_s untraced /. planned_per_cpu_s par) -. 1.0) in
  Printf.printf
    "plan (wall): %.4f s at domains %d (2-table %.4f + 4/6-table %.4f), %.4f s at \
     domains 1; tracing overhead %.1f%%\n"
    par.solve.wall domains (class_s true) (class_s false) seq.solve.wall overhead;
  layers
    (telemetry_layers snap
    @ gc
    @ [
        ("plan.small_s", class_s true);
        ("plan.large_s", class_s false);
        ("plan.seq_s", seq.solve.wall);
        ("trace.overhead_pct", overhead);
        ("wall.mods_per_s", float_of_int (plan_mods untraced) /. untraced.solve.wall);
        ( "wall.round_ms_p50",
          Perfstats.median (List.map (fun s -> 1000.0 *. s.time.wall) untraced.solves) );
        ("wall.recover_s", untraced.resolve.wall);
      ])

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-dense|serve-fleet|plan-astar --seed N \
     --seconds S --trace 0|1\n       main.exe selftest";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> if Perfstats.selftest () then print_endline "selftest ok" else exit 1
  | args ->
      let rec parse acc = function
        | [] -> acc
        | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
      let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
      let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      if seconds < 1 then usage ();
      let serve w =
        Parallel.Pool.with_pool ~domains:w.domains (fun pool ->
            if trace then run_serve_traced ~pool w ~seed
            else
              end_to_end_of_serve
                (repeat ~min:w.min_repetitions ~seconds
                   (fun () -> serve_once ~pool w ~seed)
                   ~key:exact_key))
      in
      let metrics =
        match workload with
        | "serve-dense" -> serve serve_dense
        | "serve-fleet" -> serve serve_fleet
        | "plan-astar" ->
            if trace then run_plan_traced ~domains:2 ~seed
            else run_plan_timed ~domains:2 ~seed ~seconds
        | _ -> usage ()
      in
      rmtree scratch;
      print_result metrics;
      if !failed > 0 then exit 1
