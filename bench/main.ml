(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index), plus this repo's
   own ablations, gated grids and bechamel micro-benchmarks.

   Usage: dune exec bench/main.exe -- [FLAGS] [SECTION...].  The sections
   are listed in [sections] at the bottom; with no SECTION every section
   runs except the -smoke ones.
   Flags: --csv DIR (also write tables as CSV), --trace FILE.jsonl
   (telemetry trace), --metrics (print the metrics table at the end),
   --domains 1,2,4 (domain counts swept by the parallel sections).

   The gated sections each write one BENCH_*.json to the working
   directory through {!Grid}: a meta stamp (commit, ocaml_version, domains
   swept, host cores), the section's data, and a "gates" object whose
   "failed" list is empty on a passing run; any failed gate exits 1 after
   the file is written.  The -smoke variants are tiny grids run by the
   @bench-smoke alias, so the bench binary and its gates cannot rot. *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let fcell = Util.Tablefmt.float_cell

(* When --csv DIR is given, every table is also written to DIR/<name>.csv. *)
let csv_dir : string option ref = ref None

let emit ~name ?aligns ~header rows =
  Util.Tablefmt.print ?aligns ~header rows;
  match !csv_dir with
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Util.Tablefmt.write_csv ~path ~header rows;
      Printf.printf "(written to %s)\n" path
  | None -> ()

(* Scale and seeds used throughout; deterministic. *)
let tpcr_scale = 0.05
let base_seed = 42

let fanout_domains () = List.fold_left max 1 !Grid.domains

module J = Telemetry.Jsonx

(* A measured cost curve as [[k, cost], ...]. *)
let curve_points curve =
  J.arr (List.map (fun (k, c) -> J.arr [ J.int k; J.num c ]) curve)

(* The batch sizes swept for the cost-curve figures. *)
let curve_sizes = [ 1; 2; 5; 10; 20; 50; 100; 200; 400; 600; 800; 1000 ]

(* --- shared environments -------------------------------------------------- *)

let fresh_tpcr ?(seed = base_seed) () =
  let db = Tpcr.Gen.generate ~seed ~scale:tpcr_scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  (db, m)

(* Calibrated TPC-R cost functions (Fig. 4 data) with the planner spec
   parameters derived from them.  Computed once and reused by the intro,
   fig5, fig6, fig7 and ablation sections. *)
let calibration =
  lazy
    (let db, m = fresh_tpcr () in
     let feeds = Tpcr.Updates.paper_feeds ~seed:7 db in
     let ps_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:curve_sizes in
     let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:curve_sizes in
     (* The planner simulates with the measured (tabulated) curves — the
        paper's methodology; the affine fits are reported for Fig. 4. *)
     let f_ps = Bridge.Calibrate.tabulated ~name:"c_dPartSupp" ps_curve in
     let f_s = Bridge.Calibrate.tabulated ~name:"c_dSupplier" s_curve in
     let _, fit_ps = Bridge.Calibrate.fitted ~name:"c_dPartSupp" ps_curve in
     let _, fit_s = Bridge.Calibrate.fitted ~name:"c_dSupplier" s_curve in
     List.iter
       (fun f ->
         if not (Cost.Check.is_subadditive ~upto:256 f) then
           Printf.printf
             "note: measured curve %s deviates slightly from subadditivity \
              (measurement noise; cf. paper §7 — Cost.Func.subadditive_hull \
              can repair it)\n"
             (Cost.Func.name f))
       [ f_ps; f_s ];
     (ps_curve, s_curve, f_ps, fit_ps, f_s, fit_s))

let paper_costs () =
  let _, _, f_ps, _, f_s, _ = Lazy.force calibration in
  let untouched = Cost.Func.linear ~a:1.0 in
  [| f_ps; f_s; untouched; untouched |]

(* Response-time constraint used for fig5/fig6: twice the flat part of the
   PartSupp curve, the regime the paper's Fig. 6 operates in (the
   constraint is a small multiple of one batch's fixed cost). *)
let fig6_limit () =
  let _, _, f_ps, _, _, _ = Lazy.force calibration in
  2.0 *. Cost.Func.eval f_ps 1

let uniform_spec ~limit ~horizon =
  Abivm.Spec.make ~costs:(paper_costs ()) ~limit
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

(* --- Fig. 1: two-table join cost functions --------------------------------- *)

let run_fig1 () =
  section "Fig. 1 — cost functions c_dR (indexed) and c_dS (no index), view R |x| S";
  let db2 = Tpcr.Synth.generate ~seed:base_seed ~r_rows:20_000 ~s_rows:20_000 () in
  let m = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  Relation.Meter.reset db2.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:11 db2 in
  let r_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:curve_sizes in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:curve_sizes in
  emit ~name:"fig1"
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch size"; "c_dR (cost units)"; "c_dS (cost units)" ]
    (List.map2
       (fun (k, cr) (_, cs) -> [ string_of_int k; fcell cr; fcell cs ])
       r_curve s_curve);
  let growth curve = List.assoc 1000 curve /. List.assoc 1 curve in
  Printf.printf
    "shape check: c_dR grows %.1fx over 1..1000 (paper: ~flat), c_dS grows \
     %.1fx (paper: linear)\n"
    (growth r_curve) (growth s_curve)

(* --- §1 intro example: symmetric vs asymmetric cost per modification ------- *)

let run_intro () =
  section "§1 example — symmetric vs asymmetric amortized cost (R |x| S)";
  let db2 = Tpcr.Synth.generate ~seed:base_seed ~r_rows:20_000 ~s_rows:20_000 () in
  let m = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  Relation.Meter.reset db2.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:13 db2 in
  let sizes = [ 1; 10; 50; 100; 300; 600; 1000 ] in
  let r_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  let f_r = Bridge.Calibrate.tabulated ~name:"c_dR" r_curve in
  let f_s, _ = Bridge.Calibrate.fitted ~name:"c_dS" s_curve in
  (* The paper's setting: C is where c_dR saturates (0.35 s there). *)
  let limit = 1.05 *. Cost.Func.eval f_r 600 in
  let horizon = 3000 in
  let arrivals = Array.init (horizon + 1) (fun _ -> [| 1; 1 |]) in
  let spec = Abivm.Spec.make ~costs:[| f_r; f_s |] ~limit ~arrivals in
  let naive = Abivm.Simulate.naive spec in
  let online = Abivm.Simulate.online spec in
  emit ~name:"intro"
    ~aligns:[ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "strategy"; "total cost"; "cost per modification" ]
    [
      [ "symmetric (NAIVE)"; fcell naive.Abivm.Report.total_cost;
        fcell ~decimals:4 (Abivm.Simulate.cost_per_modification spec naive) ];
      [ "asymmetric (ONLINE)"; fcell online.Abivm.Report.total_cost;
        fcell ~decimals:4 (Abivm.Simulate.cost_per_modification spec online) ];
    ];
  Printf.printf
    "shape check: asymmetric/symmetric per-mod ratio = %.2f (paper: 0.42/0.97 \
     = 0.43)\n"
    (Abivm.Simulate.cost_per_modification spec online
    /. Abivm.Simulate.cost_per_modification spec naive)

(* --- Fig. 4: TPC-R maintenance cost curves --------------------------------- *)

let run_fig4 () =
  section "Fig. 4 — TPC-R view maintenance cost vs batch size";
  let ps_curve, s_curve, _, fit_ps, _, fit_s = Lazy.force calibration in
  emit ~name:"fig4"
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch size"; "PartSupp updates"; "Supplier updates" ]
    (List.map2
       (fun (k, cp) (_, cs) -> [ string_of_int k; fcell cp; fcell cs ])
       ps_curve s_curve);
  Printf.printf
    "affine fits: PartSupp a=%.1f b=%.1f (r2=%.3f) | Supplier a=%.1f b=%.1f \
     (r2=%.3f)\n"
    fit_ps.Cost.Fit.a fit_ps.Cost.Fit.b fit_ps.Cost.Fit.r2 fit_s.Cost.Fit.a
    fit_s.Cost.Fit.b fit_s.Cost.Fit.r2;
  Printf.printf
    "shape check: Supplier curve linear and steeper (slope ratio %.1fx); \
     PartSupp flat-ish after initial increase\n"
    (fit_s.Cost.Fit.a /. fit_ps.Cost.Fit.a)

(* --- Fig. 5: simulation validation ----------------------------------------- *)

let run_fig5 () =
  section "Fig. 5 — simulated vs executed (real engine) plan costs";
  let limit = fig6_limit () in
  let spec = uniform_spec ~limit ~horizon:300 in
  let plans =
    [
      ("NAIVE", Abivm.Naive.plan spec);
      ("ONLINE", Abivm.Online.plan spec);
      ("OPT-LGM", (Abivm.Astar.solve spec).Abivm.Astar.plan);
    ]
  in
  let rows =
    List.map
      (fun (name, plan) ->
        let db, m = fresh_tpcr ~seed:101 () in
        let feeds = Tpcr.Updates.paper_feeds ~seed:23 db in
        let report =
          Bridge.Runner.run_plan
            (Bridge.Runner.engine ~maintainer:m ~feeds)
            spec plan
        in
        let simulated = report.Abivm.Report.total_cost in
        let executed =
          Option.value ~default:0.0 report.Abivm.Report.cost_units
        in
        [
          name;
          fcell simulated;
          fcell executed;
          Printf.sprintf "%.1f%%" (100.0 *. Float.abs (simulated -. executed) /. executed);
          string_of_bool report.Abivm.Report.valid;
        ])
      plans
  in
  emit ~name:"fig5"
    ~aligns:[ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
              Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:[ "plan"; "simulated cost"; "executed cost"; "error"; "view consistent" ]
    rows;
  print_endline
    "shape check: negligible simulated-vs-executed difference (paper: curves overlap)"

(* --- Fig. 6: varying refresh time ------------------------------------------ *)

let run_fig6 () =
  section "Fig. 6 — total cost vs refresh time (1 PartSupp + 1 Supplier update per step)";
  let limit = fig6_limit () in
  Printf.printf "response-time constraint C = %.0f cost units\n" limit;
  let refresh_times = [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ] in
  let rows =
    List.map
      (fun horizon ->
        let spec = uniform_spec ~limit ~horizon in
        let reports = Abivm.Simulate.all ~adapt_t0:500 spec in
        string_of_int horizon
        :: List.map
             (fun (r : Abivm.Report.t) ->
               assert r.valid;
               fcell ~decimals:0 r.total_cost)
             reports)
      refresh_times
  in
  emit ~name:"fig6"
    ~aligns:
      [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "refresh time"; "NAIVE"; "OPT-LGM"; "ADAPT(T0=500)"; "ONLINE" ]
    rows;
  let spec = uniform_spec ~limit ~horizon:1000 in
  let cost name =
    (List.find
       (fun (r : Abivm.Report.t) -> Abivm.Report.name r = name)
       (Abivm.Simulate.all ~adapt_t0:500 spec))
      .Abivm.Report.total_cost
  in
  Printf.printf
    "shape check at T=1000: NAIVE/OPT = %.2f (worst), ADAPT/OPT = %.2f, \
     ONLINE/OPT = %.2f (paper: NAIVE clearly worst; ADAPT and ONLINE close \
     to OPT)\n"
    (cost "NAIVE" /. cost "OPT-LGM")
    (cost "ADAPT" /. cost "OPT-LGM")
    (cost "ONLINE" /. cost "OPT-LGM")

(* --- Fig. 7: non-uniform arrivals ------------------------------------------ *)

let run_fig7 () =
  section "Fig. 7 — non-uniform modification arrivals (SS/SU/FS/FU)";
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  (* paper: C goes 12 s -> 20 s *)
  Printf.printf "response-time constraint C = %.0f cost units\n" limit;
  let streams =
    [
      ("SS", Workload.Arrivals.slow_stable);
      ("SU", Workload.Arrivals.slow_unstable);
      ("FS", Workload.Arrivals.fast_stable);
      ("FU", Workload.Arrivals.fast_unstable);
    ]
  in
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 5) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let reports = Abivm.Simulate.all ~adapt_t0:500 spec in
        label
        :: List.map
             (fun (r : Abivm.Report.t) ->
               assert r.valid;
               fcell ~decimals:0 r.total_cost)
             reports)
      streams
  in
  emit ~name:"fig7"
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "stream"; "NAIVE"; "OPT-LGM"; "ADAPT(T0=500)"; "ONLINE" ]
    rows;
  print_endline
    "shape check: NAIVE worst on all four streams; ONLINE close to OPT on \
     stable (SS/FS), further on unstable (SU/FU)"

(* --- §3.2 tightness of Theorem 1 -------------------------------------------- *)

let run_tightness () =
  section "§3.2 — tightness of the factor-2 LGM bound (step cost function)";
  let rows =
    List.map
      (fun eps ->
        let limit = 10.0 in
        let f = Cost.Func.step_tightness ~eps ~limit in
        let per_step = int_of_float (2.0 /. eps) + 1 in
        let arrivals = Array.make 4 [| per_step |] in
        let spec = Abivm.Spec.make ~costs:[| f |] ~limit ~arrivals in
        let exact_cost, _ = Abivm.Exact.solve spec in
        let lgm_cost = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        [
          Printf.sprintf "%.3f" eps;
          string_of_int per_step;
          fcell exact_cost;
          fcell lgm_cost;
          fcell ~decimals:3 (lgm_cost /. exact_cost);
        ])
      [ 1.0; 0.5; 0.25; 0.125 ]
  in
  emit ~name:"tightness"
    ~aligns:
      [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "eps"; "arrivals/step"; "OPT"; "OPT-LGM"; "ratio" ]
    rows;
  print_endline
    "shape check: ratio climbs toward 2 as eps shrinks (Theorem 1 is tight)"

(* --- ablations --------------------------------------------------------------- *)

let run_ablation () =
  section "Ablation — ONLINE rate predictors on unstable streams";
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  let predictors =
    [
      ("EWMA(0.2)", Abivm.Online.Ewma 0.2);
      ("EWMA(0.05)", Abivm.Online.Ewma 0.05);
      ("EWMA+1sd", Abivm.Online.Ewma_conservative { alpha = 0.2; z = 1.0 });
      ("Window(10)", Abivm.Online.Window 10);
      ("Oracle", Abivm.Online.Oracle);
    ]
  in
  let streams =
    [ ("FS", Workload.Arrivals.fast_stable); ("FU", Workload.Arrivals.fast_unstable) ]
  in
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 9) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        label :: fcell ~decimals:0 opt
        :: List.map
             (fun (_, predictor) ->
               fcell ~decimals:0
                 (Abivm.Plan.cost spec (Abivm.Online.plan ~predictor spec)))
             predictors)
      streams
  in
  emit ~name:"ablation_predictors"
    ~aligns:(List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:("stream" :: "OPT-LGM" :: List.map fst predictors)
    rows;
  section "Ablation — ONLINE scoring criterion (is the paper's H the right one?)";
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 9) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        let with_scorer scorer =
          fcell ~decimals:0 (Abivm.Plan.cost spec (Abivm.Online.plan ~scorer spec))
        in
        [
          label;
          fcell ~decimals:0 opt;
          with_scorer Abivm.Online.Amortized_total;
          with_scorer Abivm.Online.Amortized_marginal;
          with_scorer Abivm.Online.Cheapest;
        ])
      [ ("constant", Workload.Arrivals.Constant 1);
        ("FS", Workload.Arrivals.fast_stable);
        ("FU", Workload.Arrivals.fast_unstable) ]
  in
  emit ~name:"ablation_scorers"
    ~aligns:(List.init 5 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "stream"; "OPT-LGM"; "H (paper)"; "marginal"; "cheapest" ]
    rows;
  section "Ablation — A* heuristic pruning";
  let rows =
    List.map
      (fun horizon ->
        let spec = uniform_spec ~limit:(fig6_limit ()) ~horizon in
        let with_h = (Abivm.Astar.solve ~use_heuristic:true spec).Abivm.Astar.stats in
        let without_h = (Abivm.Astar.solve ~use_heuristic:false spec).Abivm.Astar.stats in
        [
          string_of_int horizon;
          string_of_int with_h.Abivm.Astar.expanded;
          string_of_int without_h.Abivm.Astar.expanded;
          Printf.sprintf "%.2fx"
            (float_of_int without_h.Abivm.Astar.expanded
            /. float_of_int (max 1 with_h.Abivm.Astar.expanded));
        ])
      [ 200; 500; 1000 ]
  in
  emit ~name:"ablation_astar"
    ~aligns:(List.init 4 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "horizon"; "A* expanded"; "Dijkstra expanded"; "pruning" ]
    rows

(* --- §7 future work: operator-level batching (lib/opflow) ------------------- *)

let run_opflow () =
  section
    "§7 extension — operator-level batching (propagate through cheap \
     operators, batch before expensive ones)";
  let stage name cost selectivity = { Opflow.Pipeline.name; cost; selectivity } in
  let chain limit =
    Opflow.Pipeline.make ~limit
      [
        stage "filter" (Cost.Func.linear ~a:1.0) 0.2;
        stage "join" (Cost.Func.plateau ~a:30.0 ~cap:800.0) 1.0;
        stage "aggregate" (Cost.Func.linear ~a:0.5) 1.0;
      ]
  in
  let rows =
    List.map
      (fun limit ->
        let p = chain limit in
        let arrivals = Array.make 1000 2 in
        let naive = Opflow.Strategy.naive p ~arrivals in
        let greedy = Opflow.Strategy.greedy p ~arrivals in
        assert (naive.Opflow.Strategy.valid && greedy.Opflow.Strategy.valid);
        [
          fcell ~decimals:0 limit;
          fcell ~decimals:0 naive.Opflow.Strategy.total_cost;
          fcell ~decimals:0 greedy.Opflow.Strategy.total_cost;
          Printf.sprintf "%.2fx"
            (naive.Opflow.Strategy.total_cost /. greedy.Opflow.Strategy.total_cost);
        ])
      [ 900.0; 1200.0; 1600.0; 2400.0 ]
  in
  emit ~name:"opflow"
    ~aligns:(List.init 4 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "limit C"; "NAIVE (all ops)"; "GREEDY (asym ops)"; "gain" ]
    rows;
  (* Exact optimum on a small constrained instance to situate greedy. *)
  let p = chain 300.0 in
  let arrivals = Array.make 40 6 in
  let exact = Opflow.Strategy.exact p ~arrivals in
  let greedy = (Opflow.Strategy.greedy p ~arrivals).Opflow.Strategy.total_cost in
  let naive = (Opflow.Strategy.naive p ~arrivals).Opflow.Strategy.total_cost in
  Printf.printf
    "small instance (T=40): exact %.0f <= greedy %.0f (%.2fx) <= naive %.0f \
     (%.2fx)\n"
    exact greedy (greedy /. exact) naive (naive /. exact)

(* --- §7 open questions, studied empirically ---------------------------------- *)

let run_conjectures () =
  section
    "§7 open question 1 — how far can ONLINE drift from OPT? (empirical \
     worst case over random instances)";
  let prng = Util.Prng.create ~seed:2718 in
  let worst = ref 1.0 and total_ratio = ref 0.0 in
  let trials = 150 in
  for _ = 1 to trials do
    let a1 = 0.5 +. Util.Prng.float prng 3.0 in
    let cap = 5.0 +. Util.Prng.float prng 40.0 in
    let a2 = 0.5 +. Util.Prng.float prng 3.0 in
    let b2 = Util.Prng.float prng 5.0 in
    let costs = [| Cost.Func.plateau ~a:a1 ~cap; Cost.Func.affine ~a:a2 ~b:b2 |] in
    let limit = cap +. 5.0 +. Util.Prng.float prng 30.0 in
    let horizon = 40 + Util.Prng.int prng 160 in
    let arrivals =
      Array.init (horizon + 1) (fun _ ->
          [| Util.Prng.int prng 3; Util.Prng.int prng 3 |])
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
    if opt > 0.0 then begin
      let online = Abivm.Plan.cost spec (Abivm.Online.plan spec) in
      let ratio = online /. opt in
      total_ratio := !total_ratio +. ratio;
      if ratio > !worst then worst := ratio
    end
  done;
  Printf.printf
    "over %d random plateau+affine instances: mean ONLINE/OPT-LGM = %.3f, \
     worst = %.3f\n"
    trials
    (!total_ratio /. float_of_int trials)
    !worst;
  section
    "§7 open question 2 — is the LGM bound better than 2 for CONCAVE costs?";
  let prng = Util.Prng.create ~seed:3141 in
  let worst = ref 1.0 in
  let trials = 80 in
  let attempted = ref 0 in
  for _ = 1 to trials do
    let costs =
      Array.init
        (1 + Util.Prng.int prng 1)
        (fun _ ->
          if Util.Prng.bool prng then
            Cost.Func.concave_sqrt
              ~a:(1.0 +. Util.Prng.float prng 4.0)
              ~b:(Util.Prng.float prng 3.0)
          else
            Cost.Func.logarithmic
              ~a:(1.0 +. Util.Prng.float prng 5.0)
              ~b:(Util.Prng.float prng 3.0))
    in
    let limit = 4.0 +. Util.Prng.float prng 8.0 in
    let horizon = 3 + Util.Prng.int prng 3 in
    let n = Array.length costs in
    let arrivals =
      Array.init (horizon + 1) (fun _ ->
          Array.init n (fun _ -> Util.Prng.int prng 3))
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    match Abivm.Exact.solve ~max_expansions:300_000 spec with
    | exception Abivm.Exact.Too_large _ -> ()
    | opt, _ when opt > 0.0 ->
        incr attempted;
        let lgm = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        if lgm /. opt > !worst then worst := lgm /. opt
    | _ -> ()
  done;
  Printf.printf
    "over %d solvable random concave instances: worst OPT-LGM/OPT = %.4f \
     (step costs reach %.3f at eps=0.125 — concavity seems to close the \
     gap, supporting the paper's conjecture)\n"
    !attempted !worst
    (42.5 /. 22.5)

(* --- multi-view coordination -------------------------------------------------- *)

let run_multiview () =
  section
    "Multi-view extension — sharing maintenance work across views \
     (piggyback co-flushing)";
  let steep = Cost.Func.affine ~a:3.0 ~b:10.0 in
  let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0 in
  let views =
    [|
      { Multiview.Coordinator.name = "tight"; costs = [| steep; flat |]; limit = 60.0 };
      { Multiview.Coordinator.name = "medium"; costs = [| steep; flat |]; limit = 120.0 };
      { Multiview.Coordinator.name = "loose"; costs = [| steep; flat |]; limit = 240.0 };
    |]
  in
  let arrivals =
    Workload.Arrivals.generate ~seed:77 ~horizon:1000
      [| Workload.Arrivals.Constant 1; Workload.Arrivals.fast_stable |]
  in
  let rows =
    List.map
      (fun discount ->
        let shared_setup = [| discount; discount |] in
        let ind =
          Multiview.Coordinator.independent ~views ~shared_setup ~arrivals ()
        in
        let pig =
          Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals ()
        in
        assert (ind.Multiview.Coordinator.valid && pig.Multiview.Coordinator.valid);
        [
          fcell ~decimals:0 discount;
          fcell ~decimals:0 ind.Multiview.Coordinator.total_cost;
          string_of_int ind.Multiview.Coordinator.co_flushes;
          fcell ~decimals:0 pig.Multiview.Coordinator.total_cost;
          string_of_int pig.Multiview.Coordinator.co_flushes;
          Printf.sprintf "%.2fx"
            (ind.Multiview.Coordinator.total_cost
            /. pig.Multiview.Coordinator.total_cost);
        ])
      [ 0.0; 8.0; 14.0; 25.0 ]
  in
  emit ~name:"multiview"
    ~aligns:(List.init 6 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "shared setup"; "independent"; "co-flushes"; "piggyback"; "co-flushes";
        "gain" ]
    rows;
  print_endline
    "three subscriptions with different QoS limits over the same streams: \
     coordination aligns their flushes to share base-table work"

(* --- parallel multiview flushes ----------------------------------------------- *)

(* Two-part section.  Part 1 runs the planning coordinator with its
   per-view flush decisions fanned out over the domain pool and asserts the
   outcome is identical to the sequential run at every domain count (the
   per-view choices depend only on each view's own frozen state, so
   parallelism must not change the answer).  Part 2 builds four real IVM
   engine views (independent TPC-R-style databases and maintainers) that
   share one {!Relation.Meter}, flushes them concurrently, and asserts the
   merged sharded counters equal the sequential totals bit-for-bit. *)
let run_multiview_par_grid ~name ~horizon ~rows ~steps () =
  let domains_list = !Grid.domains in
  let g = Grid.create ~grid:name "BENCH_multiview.json" in
  section
    (Printf.sprintf
       "Parallel multiview (%s grid) — pooled coordinator + concurrent \
        engine flushes at domains in {%s}"
       name
       (String.concat ", " (List.map string_of_int domains_list)));
  (* Part 1: coordinator. *)
  let steep = Cost.Func.affine ~a:3.0 ~b:10.0 in
  let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0 in
  let views =
    Array.init 4 (fun v ->
        {
          Multiview.Coordinator.name = Printf.sprintf "view%d" v;
          costs = [| steep; flat |];
          limit = 60.0 *. float_of_int (v + 1);
        })
  in
  let arrivals =
    Workload.Arrivals.generate ~seed:77 ~horizon
      [| Workload.Arrivals.Constant 1; Workload.Arrivals.fast_stable |]
  in
  let shared_setup = [| 8.0; 8.0 |] in
  let outcomes_equal (a : Multiview.Coordinator.outcome)
      (b : Multiview.Coordinator.outcome) =
    a.Multiview.Coordinator.total_cost = b.Multiview.Coordinator.total_cost
    && a.Multiview.Coordinator.undiscounted_cost
       = b.Multiview.Coordinator.undiscounted_cost
    && a.Multiview.Coordinator.co_flushes = b.Multiview.Coordinator.co_flushes
    && a.Multiview.Coordinator.valid = b.Multiview.Coordinator.valid
    && a.Multiview.Coordinator.per_view_cost
       = b.Multiview.Coordinator.per_view_cost
  in
  let seq_outcome =
    Multiview.Coordinator.independent ~views ~shared_setup ~arrivals ()
  in
  let coord_runs =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            let out, wall_ms =
              Grid.timed (fun () ->
                  Multiview.Coordinator.independent ~pool ~views ~shared_setup
                    ~arrivals ())
            in
            ( domains, wall_ms, out.Multiview.Coordinator.total_cost,
              outcomes_equal seq_outcome out )))
      domains_list
  in
  (* Part 2: concurrent engine flushes over one shared meter. *)
  let flush_views pool_opt =
    let shared = Relation.Meter.create () in
    let engines =
      Array.init 4 (fun v ->
          let db =
            Tpcr.Synth.generate ~seed:(base_seed + 31 + v) ~r_rows:rows
              ~s_rows:rows ()
          in
          let m =
            Ivm.Maintainer.create ~meter:shared (Tpcr.Synth.join_view db)
          in
          let feeds = Tpcr.Synth.insert_feeds ~seed:(base_seed + 57 + v) db in
          (m, feeds))
    in
    let work (m, feeds) =
      for step = 1 to steps do
        let i = step land 1 in
        Ivm.Maintainer.on_arrive m i (feeds.Tpcr.Updates.next i);
        if step mod 8 = 0 then ignore (Ivm.Maintainer.refresh m)
      done;
      ignore (Ivm.Maintainer.refresh m)
    in
    let (), wall_ms =
      Grid.timed (fun () ->
          match pool_opt with
          | Some pool -> ignore (Parallel.Pool.map pool work engines)
          | None -> Array.iter work engines)
    in
    (Relation.Meter.snapshot shared, wall_ms)
  in
  let seq_snap, seq_flush_ms = flush_views None in
  let flush_runs =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            let snap, wall_ms = flush_views (Some pool) in
            (domains, wall_ms, snap = seq_snap)))
      domains_list
  in
  (* Every pooled run must equal the sequential one bit-for-bit. *)
  let gate_runs name runs =
    let bad = List.filter_map (fun (d, ok) -> if ok then None else Some d) runs in
    Grid.gate g name (bad = [])
      (Printf.sprintf "diverged at domains [%s]"
         (String.concat "," (List.map string_of_int bad)))
  in
  gate_runs "coordinator_matches_sequential"
    (List.map (fun (d, _, _, ok) -> (d, ok)) coord_runs);
  gate_runs "flush_totals_match" (List.map (fun (d, _, ok) -> (d, ok)) flush_runs);
  emit
    ~name:("multiview_par_" ^ name)
    ~aligns:(List.init 5 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "domains"; "coordinator (ms)"; "total cost"; "flush 4 views (ms)";
        "meter totals" ]
    (List.map2
       (fun (domains, coord_ms, total_cost, _) (_, flush_ms, ok) ->
         [
           string_of_int domains;
           fcell ~decimals:1 coord_ms;
           fcell ~decimals:0 total_cost;
           fcell ~decimals:1 flush_ms;
           (if ok then "match" else "DIVERGED");
         ])
       coord_runs flush_runs);
  Printf.printf "sequential flush of the same 4 views: %.1f ms\n" seq_flush_ms;
  Grid.finish g
    [
      ("views", J.int 4);
      ("sequential_flush_wall_ms", J.num seq_flush_ms);
      ( "coordinator",
        J.arr
          (List.map
             (fun (domains, wall_ms, total_cost, ok) ->
               J.obj
                 [
                   ("domains", J.int domains); ("wall_ms", J.num wall_ms);
                   ("total_cost", J.num total_cost);
                   ("matches_sequential", string_of_bool ok);
                 ])
             coord_runs) );
      ( "flush",
        J.arr
          (List.map
             (fun (domains, wall_ms, ok) ->
               J.obj
                 [
                   ("domains", J.int domains); ("wall_ms", J.num wall_ms);
                   ("totals_match", string_of_bool ok);
                 ])
             flush_runs) );
    ]

let run_multiview_par () =
  run_multiview_par_grid ~name:"reference" ~horizon:1000 ~rows:1200 ~steps:400
    ()

let run_multiview_par_smoke () =
  run_multiview_par_grid ~name:"smoke" ~horizon:120 ~rows:150 ~steps:48 ()

(* --- A* search-engine scaling ------------------------------------------------ *)

(* Synthetic planner instances that stress the search layer itself (no
   TPC-R calibration): alternating plateau/linear costs with a limit tight
   enough that full states offer many minimal greedy subsets, so both the
   action enumeration and the open list grow with table count. *)
let astar_grid_spec ~tables ~horizon =
  let costs =
    Array.init tables (fun i ->
        if i mod 2 = 0 then Cost.Func.plateau ~a:1.0 ~cap:6.0
        else Cost.Func.linear ~a:1.5)
  in
  let limit = 3.0 +. (1.5 *. float_of_int tables) in
  let arrivals = Array.init (horizon + 1) (fun _ -> Array.make tables 1) in
  Abivm.Spec.make ~costs ~limit ~arrivals

let run_astar_grid ~name grid =
  let domains_list = !Grid.domains in
  let g = Grid.create ~grid:name "BENCH_astar.json" in
  section
    (Printf.sprintf
       "A* engine scaling (%s grid) — sequential vs HDA* at domains in {%s}"
       name
       (String.concat ", " (List.map string_of_int domains_list)));
  let results =
    List.concat_map
      (fun (tables, horizon) ->
        let spec = astar_grid_spec ~tables ~horizon in
        List.map
          (fun domains ->
            let r, wall_ms = Grid.timed (fun () -> Abivm.Astar.solve ~domains spec) in
            (tables, horizon, domains, r, wall_ms))
          domains_list)
      grid
  in
  (* Every domain count must agree bit-for-bit on the optimal cost; a
     divergence is a sharding bug. *)
  List.iter
    (fun (gt, gh) ->
      let costs =
        List.filter_map
          (fun (t, h, d, (r : Abivm.Astar.result), _) ->
            if t = gt && h = gh then Some (d, r.Abivm.Astar.cost) else None)
          results
      in
      let c0 = snd (List.hd costs) in
      Grid.gate g
        (Printf.sprintf "cost_bits_equal_t%d_h%d" gt gh)
        (List.for_all
           (fun (_, c) -> Int64.bits_of_float c = Int64.bits_of_float c0)
           costs)
        (String.concat ", "
           (List.map (fun (d, c) -> Printf.sprintf "%d: %.17g" d c) costs)))
    grid;
  let wall_at_one gt gh =
    List.find_map
      (fun (t, h, d, _, wall) ->
        if t = gt && h = gh && d = 1 then Some wall else None)
      results
  in
  emit ~name:("astar_" ^ name)
    ~aligns:(List.init 10 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "tables"; "horizon"; "domains"; "cost"; "expanded"; "generated";
        "pruned"; "peak queue"; "wall (ms)"; "speedup" ]
    (List.map
       (fun (tables, horizon, domains, (r : Abivm.Astar.result), wall_ms) ->
         [
           string_of_int tables;
           string_of_int horizon;
           string_of_int domains;
           fcell r.Abivm.Astar.cost;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.expanded;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.generated;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.pruned;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.max_queue;
           fcell ~decimals:1 wall_ms;
           (match wall_at_one tables horizon with
           | Some base when wall_ms > 0.0 ->
               Printf.sprintf "%.2fx" (base /. wall_ms)
           | _ -> "-");
         ])
       results);
  let entry (tables, horizon, domains, (r : Abivm.Astar.result), wall_ms) =
    let s = r.Abivm.Astar.stats in
    J.obj
      [
        ("tables", J.int tables); ("horizon", J.int horizon);
        ("domains", J.int domains); ("cost", J.num r.Abivm.Astar.cost);
        ("expanded", J.int s.Abivm.Astar.expanded);
        ("generated", J.int s.Abivm.Astar.generated);
        ("reopened", J.int s.Abivm.Astar.reopened);
        ("pruned", J.int s.Abivm.Astar.pruned);
        ("queue_peak", J.int s.Abivm.Astar.max_queue);
        ("live_peak", J.int s.Abivm.Astar.max_live); ("wall_ms", J.num wall_ms);
      ]
  in
  Grid.finish g [ ("runs", J.arr (List.map entry results)) ]

let astar_reference_grid =
  [ (2, 60); (2, 240); (4, 60); (4, 240); (6, 30); (6, 60) ]

let astar_smoke_grid = [ (2, 20); (3, 15); (4, 10) ]

let run_astar () = run_astar_grid ~name:"reference" astar_reference_grid
let run_astar_smoke () = run_astar_grid ~name:"smoke" astar_smoke_grid

(* --- robustness: drift injection, detection, replanning ----------------------- *)

let robust_streams =
  [
    ("SS", Workload.Arrivals.slow_stable);
    ("SU", Workload.Arrivals.slow_unstable);
    ("FS", Workload.Arrivals.fast_stable);
    ("FU", Workload.Arrivals.fast_unstable);
  ]

(* Each stream is degraded by the canonical drifted scenario (arrival rates
   x2 from mid-horizon, true costs 2x the calibrated model) and maintained
   three ways: ADAPT replaying its stale cyclic schedule (rescue-flushing
   on constraint violations), the monitored replanner of Robust.Replan,
   and ONLINE given the true costs as an adaptive reference point. *)
let run_robust_grid ~name ~costs ~limit ~horizon ~t0 () =
  let g = Grid.create ~grid:name "BENCH_robust.json" in
  section
    (Printf.sprintf
       "Robustness (%s grid) — static ADAPT vs replanning ADAPT vs ONLINE \
        under drift"
       name);
  Printf.printf
    "drift: arrival rates x2 from t=%d, true costs 2x the model; C = %.0f, \
     T0 = %d\n"
    ((horizon / 2) + 1)
    limit t0;
  let n = Array.length costs in
  let eval (label, stream) =
    let arrivals =
      Workload.Arrivals.generate ~seed:(base_seed + 17) ~horizon
        (Array.init n (fun i ->
             if i < 2 then stream else Workload.Arrivals.Constant 0))
    in
    let model = Abivm.Spec.make ~costs ~limit ~arrivals in
    let sc = Robust.Inject.drifted model in
    let actual = sc.Robust.Inject.actual in
    let static = Robust.Replan.static_adapt ~model ~actual ~t0 in
    let static_cost = Abivm.Plan.cost actual static.Abivm.Adapt.plan in
    let re = Robust.Replan.run ~model ~actual ~t0 () in
    let online_cost = Abivm.Plan.cost actual (Abivm.Online.plan actual) in
    (label, static_cost, static.Abivm.Adapt.rescues, re, online_cost)
  in
  (* The four streams are independent scenarios, so fan the evaluation out
     across the pool; each closure touches only its own spec/replanner
     state, and [map] keeps the results in stream order. *)
  let results =
    Parallel.Pool.with_pool ~domains:(fanout_domains ()) (fun pool ->
        Array.to_list
          (Parallel.Pool.map pool eval (Array.of_list robust_streams)))
  in
  emit
    ~name:("robust_" ^ name)
    ~aligns:
      (Util.Tablefmt.Left :: List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "stream"; "ADAPT static"; "rescues"; "ADAPT replan"; "rescues";
        "replans"; "drift peak"; "ONLINE (true costs)" ]
    (List.map
       (fun (label, static_cost, static_rescues,
             (re : Robust.Replan.result), online_cost) ->
         [
           label;
           fcell ~decimals:0 static_cost;
           string_of_int static_rescues;
           fcell ~decimals:0 re.Robust.Replan.cost;
           string_of_int re.Robust.Replan.rescues;
           string_of_int re.Robust.Replan.replans;
           fcell ~decimals:2 re.Robust.Replan.drift_peak;
           fcell ~decimals:0 online_cost;
         ])
       results);
  print_endline
    "shape check: replanning ADAPT should match or beat static ADAPT with \
     fewer rescue flushes on every stream";
  let entry (label, static_cost, static_rescues,
             (re : Robust.Replan.result), online_cost) =
    J.obj
      [
        ("stream", J.str label); ("static_cost", J.num static_cost);
        ("static_rescues", J.int static_rescues);
        ("replan_cost", J.num re.Robust.Replan.cost);
        ("replan_rescues", J.int re.Robust.Replan.rescues);
        ("replans", J.int re.Robust.Replan.replans);
        ("drift_peak", J.num re.Robust.Replan.drift_peak);
        ("online_cost", J.num online_cost);
      ]
  in
  Grid.finish g
    [
      ("horizon", J.int horizon); ("t0", J.int t0);
      ("runs", J.arr (List.map entry results));
    ]

let run_robust () =
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  run_robust_grid ~name:"reference" ~costs:(paper_costs ()) ~limit
    ~horizon:1000 ~t0:500 ()

let run_robust_smoke () =
  let costs =
    [| Cost.Func.plateau ~a:1.0 ~cap:6.0; Cost.Func.affine ~a:1.0 ~b:2.0 |]
  in
  run_robust_grid ~name:"smoke" ~costs ~limit:10.0 ~horizon:60 ~t0:20 ()

(* --- durability: WAL + checkpoint overhead, recovery time --------------------- *)

let durable_scratch = "_durable_bench"

(* The SS-workload scenario shared by the baseline and every durability
   configuration: a synthetic equi-join view maintained under the ONLINE
   plan.  Durability may slow the run down but must never change it, so
   the grid checks every configuration's engine cost bit-for-bit against
   the WAL-off baseline. *)
let durable_env ~rows ~join_domain ~horizon =
  let seed = base_seed + 23 in
  let arrivals =
    Workload.Arrivals.generate ~seed:(seed + 2) ~horizon
      [| Workload.Arrivals.slow_stable; Workload.Arrivals.slow_stable |]
  in
  let costs =
    [| Cost.Func.affine ~a:1.0 ~b:5.0; Cost.Func.affine ~a:1.0 ~b:5.0 |]
  in
  let spec = Abivm.Spec.make ~costs ~limit:60.0 ~arrivals in
  let plan = Abivm.Online.plan spec in
  let fresh () =
    let db =
      Tpcr.Synth.generate ~seed ~r_rows:rows ~s_rows:rows ~join_domain ()
    in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter (Tpcr.Synth.join_view db)
    in
    Relation.Meter.reset db.Tpcr.Synth.meter;
    (m, Tpcr.Synth.insert_feeds ~seed:(seed + 1) db)
  in
  let view_of tables =
    Ivm.Viewdef.make ~name:"r_join_s" ~tables
      ~join:
        [ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
      ~aggs:[ Relation.Agg.count "pairs" ]
      ()
  in
  { Durable.Exec.fresh; view_of; spec; plan; params = [] }

(* (label, segment_bytes, ckpt_actions, sync) *)
let durable_configs =
  [
    ("fsync-always", 64 * 1024, 16, Durable.Wal.Always);
    ("group-commit-32", 256 * 1024, 64, Durable.Wal.Interval 32);
    ("no-fsync", 256 * 1024, 64, Durable.Wal.Never);
    ("big-segments", 1024 * 1024, 256, Durable.Wal.Interval 32);
  ]

let run_durable_grid ~name ~rows ~join_domain ~horizon ~repeat () =
  let g = Grid.create ~grid:name "BENCH_durable.json" in
  section
    (Printf.sprintf
       "Durability (%s grid) — steady-state WAL/checkpoint overhead and \
        recovery time vs the WAL-off baseline"
       name);
  let env = durable_env ~rows ~join_domain ~horizon in
  let baseline () =
    let m, feeds = env.Durable.Exec.fresh () in
    Bridge.Runner.run_plan
      (Bridge.Runner.engine ~maintainer:m ~feeds)
      env.Durable.Exec.spec env.Durable.Exec.plan
  in
  let report, baseline_ms = Grid.best_of ~repeat (fun () -> Grid.timed baseline) in
  let baseline_cost =
    Option.value ~default:Float.nan report.Abivm.Report.cost_units
  in
  Printf.printf
    "SS workload, %d rows/table, T = %d; WAL-off baseline: %.1f ms, %.2f \
     cost units (best of %d)\n"
    rows horizon baseline_ms baseline_cost repeat;
  Grid.rmtree durable_scratch;
  Unix.mkdir durable_scratch 0o755;
  let results =
    List.map
      (fun (label, segment_bytes, ckpt_actions, sync) ->
        let counter = ref 0 in
        let run_once () =
          incr counter;
          let dir =
            Filename.concat durable_scratch
              (Printf.sprintf "%s-%s-%d" name label !counter)
          in
          Grid.rmtree dir;
          let config =
            {
              (Durable.Exec.default_config ~dir) with
              Durable.Exec.segment_bytes;
              ckpt_actions;
              sync;
            }
          in
          (config, Durable.Exec.run config env)
        in
        let (config, outcome), wall_ms =
          Grid.best_of ~repeat (fun () -> Grid.timed run_once)
        in
        (* Recovery: reopen the finished run from disk, restore the latest
           checkpoint, replay the WAL tail, deep-check the view. *)
        let verified, recovery_ms =
          Grid.timed (fun () -> Durable.Exec.verify config env)
        in
        Grid.gate g ("recovered_" ^ label) (Result.is_ok verified)
          (match verified with Ok _ -> "view verified" | Error e -> e);
        let overhead_pct = 100.0 *. (wall_ms -. baseline_ms) /. baseline_ms in
        let cost_match =
          Int64.bits_of_float outcome.Durable.Exec.total_cost
          = Int64.bits_of_float baseline_cost
        in
        Grid.gate g ("cost_matches_baseline_" ^ label) cost_match
          (Printf.sprintf "%.17g vs baseline %.17g"
             outcome.Durable.Exec.total_cost baseline_cost);
        ( label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
          recovery_ms, outcome, cost_match ))
      durable_configs
  in
  emit
    ~name:("durable_" ^ name)
    ~aligns:
      (Util.Tablefmt.Left :: Util.Tablefmt.Left
      :: List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "config"; "sync"; "seg KiB"; "ckpt every"; "wall (ms)"; "overhead %";
        "recovery (ms)"; "wal records"; "cost = baseline" ]
    (List.map
       (fun (label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
             recovery_ms, (o : Durable.Exec.outcome), cost_match) ->
         [
           label;
           Durable.Wal.sync_to_string sync;
           string_of_int (segment_bytes / 1024);
           string_of_int ckpt_actions;
           fcell ~decimals:1 wall_ms;
           fcell ~decimals:1 overhead_pct;
           fcell ~decimals:1 recovery_ms;
           string_of_int o.Durable.Exec.lsn;
           string_of_bool cost_match;
         ])
       results);
  let best_label, _, _, _, _, best_overhead, _, _, _ =
    List.fold_left
      (fun (( _, _, _, _, _, acc_overhead, _, _, _ ) as acc) candidate ->
        let _, _, _, _, _, overhead, _, _, _ = candidate in
        if overhead < acc_overhead then candidate else acc)
      (List.hd results) (List.tl results)
  in
  Printf.printf
    "shape check: the best config (%s, %.1f%% overhead) should stay within \
     the 25%% steady-state budget\n"
    best_label best_overhead;
  Grid.rmtree durable_scratch;
  let entry (label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
             recovery_ms, (o : Durable.Exec.outcome), cost_match) =
    J.obj
      [
        ("config", J.str label); ("sync", J.str (Durable.Wal.sync_to_string sync));
        ("segment_bytes", J.int segment_bytes); ("ckpt_actions", J.int ckpt_actions);
        ("wall_ms", J.num wall_ms); ("overhead_pct", J.num overhead_pct);
        ("recovery_ms", J.num recovery_ms); ("wal_records", J.int o.Durable.Exec.lsn);
        ("checkpoints", J.int o.Durable.Exec.checkpoints);
        ("cost_units", J.num o.Durable.Exec.total_cost);
        ("cost_matches_baseline", string_of_bool cost_match);
      ]
  in
  Grid.finish g
    [
      ("rows", J.int rows); ("horizon", J.int horizon);
      ("baseline_wall_ms", J.num baseline_ms);
      ("baseline_cost_units", J.num baseline_cost);
      ("runs", J.arr (List.map entry results));
    ]

let run_durable () =
  run_durable_grid ~name:"reference" ~rows:2500 ~join_domain:25 ~horizon:1000 ~repeat:3 ()

let run_durable_smoke () =
  run_durable_grid ~name:"smoke" ~rows:250 ~join_domain:10 ~horizon:40 ~repeat:1 ()

(* --- bechamel micro-benchmarks ----------------------------------------------- *)

let run_micro () =
  section "Micro-benchmarks (bechamel; one Test.make per figure kernel)";
  let open Bechamel in
  let limit = fig6_limit () in
  let spec200 = uniform_spec ~limit ~horizon:200 in
  let db2 = Tpcr.Synth.generate ~seed:3 ~r_rows:5_000 ~s_rows:5_000 () in
  let m2 = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  let feeds2 = Tpcr.Synth.insert_feeds ~seed:4 db2 in
  let tests =
    [
      Test.make ~name:"fig1/maintain-batch-100 (engine kernel)"
        (Staged.stage (fun () ->
             for _ = 1 to 100 do
               Ivm.Maintainer.on_arrive m2 1 (feeds2.Tpcr.Updates.next 1)
             done;
             ignore (Ivm.Maintainer.process m2 1 100)));
      Test.make ~name:"fig5/naive-plan-T200"
        (Staged.stage (fun () -> ignore (Abivm.Naive.plan spec200)));
      Test.make ~name:"fig6/astar-T200"
        (Staged.stage (fun () -> ignore (Abivm.Astar.solve spec200)));
      Test.make ~name:"fig6/online-T200"
        (Staged.stage (fun () -> ignore (Abivm.Online.plan spec200)));
      Test.make ~name:"fig7/online-bursty-T200"
        (Staged.stage
           (let arrivals =
              Workload.Arrivals.generate ~seed:6 ~horizon:200
                [| Workload.Arrivals.fast_unstable; Workload.Arrivals.fast_unstable;
                   Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
            in
            let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
            fun () -> ignore (Abivm.Online.plan spec)));
      Test.make ~name:"tightness/exact-dp"
        (Staged.stage (fun () ->
             let f = Cost.Func.step_tightness ~eps:0.5 ~limit:10.0 in
             let spec =
               Abivm.Spec.make ~costs:[| f |] ~limit:10.0
                 ~arrivals:(Array.make 4 [| 5 |])
             in
             ignore (Abivm.Exact.solve spec)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun test ->
      List.iter
        (fun (name, ols) ->
          let nanos =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | Some _ | None -> Float.nan
          in
          Printf.printf "  %-45s %12.0f ns/run\n" name nanos)
        (benchmark test))
    tests

(* --- columnar engine: boxed vs vectorized --------------------------------- *)

(* Head-to-head of the two engine paths on the kernels the columnar redesign
   targets: (1) scan + predicate, Ra.eval_boxed with the row compiler vs
   draining Ra.cursor with the unboxed filter kernels; (2) delta
   application, the pre-columnar row-at-a-time expand loop (boxed hash of
   the delta keys probed once per materialized scan row) vs the maintainer's
   vectorized scan_batches/Ihash probe over the raw int column.  Both sides
   of each pair must produce the same row counts, and the vectorized side
   must clear the 3x acceptance bar on both kernels. *)

(* Join keys span rows/4 distinct values (~4 partner rows per key), the
   sparse-probe regime delta application runs in. *)
let columnar_key_domain rows = max 1 (rows / 4)

let columnar_table ~rows =
  let open Relation in
  let schema =
    Schema.make
      [ ("k", Datatype.TInt); ("v", Datatype.TFloat); ("tag", Datatype.TString) ]
  in
  let t = Table.create ~name:"col" ~schema () in
  let st = Random.State.make [| 0xBA7C; rows |] in
  let domain = columnar_key_domain rows in
  for i = 0 to rows - 1 do
    let k = Random.State.int st domain in
    let v =
      if i mod 97 = 0 then Value.Null
      else Value.Float (float_of_int (Random.State.int st 500))
    in
    ignore
      (Table.insert t
         (Tuple.make
            [ Value.Int k; v; Value.Str (if k land 1 = 0 then "even" else "odd") ]))
  done;
  t

let time_ms f =
  (* settle the heap first: the boxed kernels allocate heavily, and major
     GC debt from one measurement would otherwise bleed into the next *)
  Gc.compact ();
  Grid.timed f

let run_columnar_grid ~name ~rows ~deltas ~repeat () =
  let open Relation in
  let g = Grid.create ~grid:name "BENCH_columnar.json" in
  section
    (Printf.sprintf
       "Columnar engine: boxed vs vectorized (%s grid; %d rows, %d deltas, \
        repeat %d)"
       name rows deltas repeat);
  let t = columnar_table ~rows in
  (* -- scan + predicate: a kernel-eligible conjunction ---------------------- *)
  let pred =
    (* ~40% of keys, then ~80% of those on v: selective but not degenerate *)
    Expr.(
      And
        ( Lt (col "k", int (2 * columnar_key_domain rows / 5)),
          Ge (col "v", float 100.0) ))
  in
  let plan = Ra.select pred (Ra.scan t) in
  (* Each kernel's boxed and vectorized sides are timed alternately, one
     repetition per measurement, best-of-[repeat] each. *)
  let interleave boxed vec =
    Grid.best_of_interleaved ~repeat
      (fun () -> time_ms boxed)
      (fun () -> time_ms vec)
  in
  let (boxed_rows, boxed_scan_ms), (vec_rows, vec_scan_ms) =
    interleave
      (fun () -> List.length (Ra.eval_boxed plan))
      (fun () ->
        let c = Ra.cursor plan in
        let n = ref 0 in
        let rec loop () =
          match c () with
          | None -> !n
          | Some b ->
              n := !n + b.Batch.n_sel;
              loop ()
        in
        loop ())
  in
  (* -- delta application ---------------------------------------------------- *)
  (* Delta keys hitting ~deltas/1000 of the key domain, as the maintainer
     sees when a batch of updates joins an unindexed partner table. *)
  let st = Random.State.make [| 0xDE17A; deltas |] in
  let domain = columnar_key_domain rows in
  let delta_keys = Array.init deltas (fun _ -> Random.State.int st domain) in
  let (boxed_matches, boxed_delta_ms), (vec_matches, vec_delta_ms) =
    interleave
      (fun () ->
        (* the pre-columnar expand loop: boxed Value hash of the delta
           keys, probed once per scanned (materialized) row *)
        let h = Hashtbl.create (Array.length delta_keys) in
        Array.iter
          (fun k ->
            let v = Value.Int k in
            Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
          delta_keys;
        let n = ref 0 in
        Table.scan t (fun _ tup ->
            match Hashtbl.find_opt h (Tuple.get tup 0) with
            | Some c -> n := !n + c
            | None -> ());
        !n)
      (fun () ->
        (* the maintainer's vectorized expand: unboxed Ihash probe over
           the raw int column, partner tuple materialized on match *)
        let h = Ihash.create (Array.length delta_keys) in
        Array.iter (fun k -> Ihash.add h k 0) delta_keys;
        let n = ref 0 in
        Table.scan_batches t (fun b ->
            let col = b.Batch.cols.(0) in
            let data = Column.int_data col and valid = Column.validity col in
            let base = b.Batch.base in
            for s = 0 to b.Batch.n_sel - 1 do
              let r = Array.unsafe_get b.Batch.sel s in
              let abs = base + r in
              if Column.bit valid abs then begin
                let cell =
                  ref (Ihash.first h (Bigarray.Array1.unsafe_get data abs))
                in
                while !cell >= 0 do
                  ignore (Batch.tuple b r);
                  incr n;
                  cell := Ihash.next_cell h !cell
                done
              end
            done);
        !n)
  in
  let kernels =
    [
      ("scan_predicate", boxed_scan_ms, vec_scan_ms, boxed_rows, vec_rows);
      ("delta_apply", boxed_delta_ms, vec_delta_ms, boxed_matches, vec_matches);
    ]
  in
  let speedup (_, boxed_ms, vec_ms, _, _) = boxed_ms /. vec_ms in
  emit ~name:("columnar_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "kernel"; "boxed (ms)"; "vectorized (ms)"; "speedup"; "rows out" ]
    (List.map
       (fun ((kernel, boxed_ms, vec_ms, _, rows) as k) ->
         [
           kernel; fcell ~decimals:2 boxed_ms; fcell ~decimals:2 vec_ms;
           fcell ~decimals:2 (speedup k); string_of_int rows;
         ])
       kernels);
  List.iter
    (fun ((kernel, _, _, boxed_rows, vec_rows) as k) ->
      Grid.gate g (kernel ^ "_rows_match") (boxed_rows = vec_rows)
        (Printf.sprintf "%d boxed vs %d vectorized" boxed_rows vec_rows);
      Grid.gate g ~value:(J.num (speedup k)) (kernel ^ "_speedup")
        (speedup k >= 3.0)
        (Printf.sprintf "%.2fx, bar 3x" (speedup k)))
    kernels;
  Grid.finish g
    [
      ("rows", J.int rows); ("deltas", J.int deltas); ("repeat", J.int repeat);
      ( "runs",
        J.arr
          (List.map
             (fun ((kernel, boxed_ms, vec_ms, _, rows) as k) ->
               J.obj
                 [
                   ("kernel", J.str kernel); ("boxed_ms", J.num boxed_ms);
                   ("vectorized_ms", J.num vec_ms); ("speedup", J.num (speedup k));
                   ("rows_out", J.int rows);
                 ])
             kernels) );
    ]

let run_columnar () =
  run_columnar_grid ~name:"reference" ~rows:400_000 ~deltas:2_000 ~repeat:3 ()

let run_columnar_smoke () =
  run_columnar_grid ~name:"smoke" ~rows:80_000 ~deltas:600 ~repeat:9 ()

(* --- serve: shared SLO scheduler vs independent per-tenant ONLINE ---------- *)

(* Each tenant runs the §4.3 ONLINE controller as an SLO over its own
   engine either way; the question the table answers is what the shared
   scheduler's cross-tenant co-flush coordination buys.  "independent"
   disables coordination (every tenant flushes alone, full price);
   "shared" lets nearly-due tenants piggyback on a forced flush and
   prices each table's combined work with the multiview shared-setup
   discount.  The shared scheduler must still meet every tenant's
   constraint — the worst violation rate may not regress — at an
   aggregate charged cost no higher than the independent runs'. *)

(* The serve and serve-io fleets: [tenants] first-order tenants on
   slow-stable streams, all admitted up front into a fresh [root]. *)
let fleet_service ~root ~tenants ~rows ~horizon ~limit_factor config =
  Grid.rmtree root;
  let svc =
    Serve.Service.create ~root
      {
        config with
        Serve.Service.admission =
          {
            Serve.Admission.max_active = tenants;
            max_queued = tenants;
            max_delta_entries = max_int;
          };
      }
  in
  for i = 0 to tenants - 1 do
    let name = Printf.sprintf "t%d" i in
    match
      Serve.Service.register svc
        {
          Serve.Tenant.name;
          seed = base_seed + (10 * i);
          rows;
          horizon;
          limit_factor;
          streams = [ "ss"; "ss" ];
          order = Ivm.Viewdef.First_order;
          sync = None;
        }
    with
    | Ok Serve.Admission.Admit -> ()
    | Ok d ->
        failwith
          ("tenant " ^ name ^ " not admitted: " ^ Serve.Admission.describe d)
    | Error e -> failwith ("tenant " ^ name ^ ": " ^ e)
  done;
  svc

(* A scratch root under the temp dir, unique to this process. *)
let bench_root fmt =
  Printf.ksprintf
    (fun s ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "abivm-bench-%d-%s" (Unix.getpid ()) s))
    fmt

let run_serve_grid ~name ~tenants ~rows ~horizon ~limit_factor () =
  let g = Grid.create ~grid:name "BENCH_serve.json" in
  section
    (Printf.sprintf
       "Serve (%s grid) — shared SLO scheduler vs independent per-tenant \
        ONLINE (%d tenants, %d rows, horizon %d)"
       name tenants rows horizon);
  let run_mode label ~coordinate =
    let root = bench_root "serve-%s-%b" name coordinate in
    let svc =
      fleet_service ~root ~tenants ~rows ~horizon ~limit_factor
        { Serve.Service.default_config with coordinate; discount_factor = 0.8 }
    in
    let outcome, wall_ms = Grid.timed (fun () -> Serve.Service.run svc) in
    Grid.rmtree root;
    let inconsistent =
      List.filter_map
        (fun (t : Serve.Service.tenant_outcome) ->
          if t.Serve.Service.consistent then None else Some t.Serve.Service.tenant)
        outcome.Serve.Service.tenants
    in
    Grid.gate g (label ^ "_tenants_consistent") (inconsistent = [])
      ("inconsistent: [" ^ String.concat "," inconsistent ^ "]");
    (outcome, wall_ms)
  in
  let indep, indep_ms = run_mode "independent" ~coordinate:false in
  let shared, shared_ms = run_mode "shared" ~coordinate:true in
  let row label (o : Serve.Service.outcome) wall_ms =
    [
      label;
      fcell ~decimals:2 o.Serve.Service.aggregate_charged;
      fcell ~decimals:2 o.Serve.Service.aggregate_undiscounted;
      string_of_int o.Serve.Service.co_flushes;
      fcell ~decimals:4 o.Serve.Service.worst_violation_rate;
      fcell ~decimals:1 wall_ms;
    ]
  in
  emit
    ~name:("serve_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Right; Right; Right; Right; Right ]
    ~header:
      [ "scheduler"; "aggregate charged"; "undiscounted"; "co-flush joins";
        "worst SLO violation rate"; "wall (ms)" ]
    [ row "independent ONLINE" indep indep_ms;
      row "shared (co-flush)" shared shared_ms ];
  let savings =
    100.0
    *. (1.0
       -. (shared.Serve.Service.aggregate_charged
          /. Float.max 1e-9 indep.Serve.Service.aggregate_charged))
  in
  Printf.printf
    "shared scheduler: %.1f%% aggregate cost vs independent, worst \
     violation rate %.4f (independent %.4f)\n"
    (100.0 -. savings)
    shared.Serve.Service.worst_violation_rate
    indep.Serve.Service.worst_violation_rate;
  Grid.gate g "shared_cost_le_independent"
    (shared.Serve.Service.aggregate_charged
    <= indep.Serve.Service.aggregate_charged +. 1e-6)
    (Printf.sprintf "%.2f vs %.2f" shared.Serve.Service.aggregate_charged
       indep.Serve.Service.aggregate_charged);
  Grid.gate g "shared_slo_kept"
    (shared.Serve.Service.worst_violation_rate
    <= indep.Serve.Service.worst_violation_rate +. 1e-12)
    (Printf.sprintf "worst violation rate %.4f vs %.4f"
       shared.Serve.Service.worst_violation_rate
       indep.Serve.Service.worst_violation_rate);
  let mode_json (o : Serve.Service.outcome) wall_ms =
    J.obj
      [
        ("aggregate_charged", J.num o.Serve.Service.aggregate_charged);
        ("aggregate_undiscounted", J.num o.Serve.Service.aggregate_undiscounted);
        ("co_flushes", J.int o.Serve.Service.co_flushes);
        ("worst_violation_rate", J.num o.Serve.Service.worst_violation_rate);
        ("rounds", J.int o.Serve.Service.rounds); ("wall_ms", J.num wall_ms);
        ( "tenants",
          J.arr
            (List.map
               (fun (t : Serve.Service.tenant_outcome) ->
                 J.obj
                   [
                     ("tenant", J.str t.Serve.Service.tenant);
                     ("metered_cost", J.num t.Serve.Service.metered_cost);
                     ("charged_cost", J.num t.Serve.Service.charged_cost);
                     ("violations", J.int t.Serve.Service.violations);
                     ("violation_rate", J.num t.Serve.Service.violation_rate);
                     ("sheds", J.int t.Serve.Service.sheds);
                     ("reanchors", J.int t.Serve.Service.reanchors);
                     ("consistent", string_of_bool t.Serve.Service.consistent);
                   ])
               o.Serve.Service.tenants) );
      ]
  in
  Grid.finish g
    [
      ("tenants", J.int tenants); ("rows", J.int rows); ("horizon", J.int horizon);
      ("limit_factor", J.num limit_factor);
      ("independent", mode_json indep indep_ms);
      ("shared", mode_json shared shared_ms);
    ]

let run_serve () =
  run_serve_grid ~name:"reference" ~tenants:6 ~rows:120 ~horizon:60
    ~limit_factor:1.5 ()

let run_serve_smoke () =
  run_serve_grid ~name:"smoke" ~tenants:4 ~rows:60 ~horizon:25
    ~limit_factor:1.2 ()

(* --- serve-io: group-commit window + off-thread checkpoints ----------------- *)

(* The serve-path I/O experiment (DESIGN.md §15).  Three claims, each a
   hard gate (exit 1 on regression):

   1. Under the shared group-commit window a scheduler round costs ONE
      data fsync — the window close — however many tenants committed,
      where per-tenant [Always] WALs pay one fsync per commit.
   2. That converts into wall-clock throughput: the grouped service
      finishes the same workload at least 2x faster than per-tenant
      [Always] WALs, at equal recovered state — both roots are recovered
      from disk after the timed runs and every outcome bit (per-tenant
      costs, aggregates, discounts, round count) must agree between the
      two layouts, live and recovered alike.
   3. Off-thread checkpoints ([Durable.Exec] with a pool) stall the
      maintenance thread no more than synchronous ones do
      ([durable.ckpt_stall_ms]), with the total cost bit-identical. *)

let telemetry_diff f =
  let owned = not (Telemetry.enabled ()) in
  if owned then Telemetry.enable ();
  let before = Telemetry.snapshot () in
  let v = f () in
  let diff = Telemetry.Metrics.diff (Telemetry.snapshot ()) before in
  if owned then Telemetry.disable ();
  (v, diff)

let serveio_digest (o : Serve.Service.outcome) =
  String.concat ","
    (Printf.sprintf "%Lx" (Int64.bits_of_float o.Serve.Service.aggregate_charged)
    :: Printf.sprintf "%Lx"
         (Int64.bits_of_float o.Serve.Service.aggregate_undiscounted)
    :: string_of_int o.Serve.Service.co_flushes
    :: string_of_int o.Serve.Service.rounds
    :: List.concat_map
         (fun (t : Serve.Service.tenant_outcome) ->
           [
             t.Serve.Service.tenant;
             string_of_int t.Serve.Service.steps;
             Printf.sprintf "%Lx" (Int64.bits_of_float t.Serve.Service.metered_cost);
             Printf.sprintf "%Lx" (Int64.bits_of_float t.Serve.Service.charged_cost);
             string_of_int t.Serve.Service.violations;
           ])
         o.Serve.Service.tenants)

let run_serveio_grid ~name ~tenants ~rows ~horizon ~limit_factor ~repeat
    ~ckpt_rows ~ckpt_horizon () =
  let g = Grid.create ~grid:name "BENCH_serveio.json" in
  section
    (Printf.sprintf
       "Serve I/O (%s grid) — shared group-commit window vs per-tenant \
        Always WALs (%d tenants, %d rows, horizon %d), plus off-thread \
        checkpoint stall"
       name tenants rows horizon);
  (* One timed run of the fleet under a WAL layout.  Only
     [Serve.Service.run] is timed — tenant admission (synthetic DB
     generation) is identical across layouts and not the claim under
     test, and the heap is settled first so that its garbage is not
     collected inside the timed run. *)
  let timed_run ~root ~wal_mode ~scheduler () =
    let svc =
      fleet_service ~root ~tenants ~rows ~horizon ~limit_factor
        {
          Serve.Service.default_config with
          (* Coordination is the serve grid's subject; here it would
             only add co-flush journal manifest writes to both
             layouts and blur the fsync accounting under test. *)
          coordinate = false;
          discount_factor = 0.0;
          sync = Durable.Wal.Always;
          wal_mode;
          scheduler;
        }
    in
    Gc.compact ();
    let (outcome, wall_ms), metrics =
      telemetry_diff (fun () -> Grid.timed (fun () -> Serve.Service.run svc))
    in
    ( ( outcome,
        Serve.Service.rounds svc,
        Serve.Service.idle_rounds svc,
        Serve.Service.window_closes svc,
        Telemetry.Metrics.value metrics "durable.fsyncs" ),
      wall_ms )
  in
  (* The two layouts alternate, best-of-[repeat] each; then each layout's
     last root is recovered from disk. *)
  let g_root = bench_root "serveio-%s-grouped" name in
  let p_root = bench_root "serveio-%s-private-always" name in
  let g_run, p_run =
    Grid.best_of_interleaved ~repeat
      (timed_run ~root:g_root ~wal_mode:Serve.Service.Grouped
         ~scheduler:Serve.Service.Event)
      (timed_run ~root:p_root ~wal_mode:Serve.Service.Private
         ~scheduler:Serve.Service.Lockstep)
  in
  let recover_mode ~label ~root
      ((outcome, rounds, idle_rounds, window_closes, fsyncs), wall_ms) =
    let recovered =
      match Serve.Service.recover ~root () with
      | Error e -> "recover failed: " ^ e
      | Ok svc -> serveio_digest (Serve.Service.run svc)
    in
    Grid.rmtree root;
    let busy = max 1 (rounds - idle_rounds) in
    (label, outcome, rounds, idle_rounds, busy, window_closes, fsyncs, wall_ms,
     recovered)
  in
  let grouped = recover_mode ~label:"grouped" ~root:g_root g_run in
  let private_ = recover_mode ~label:"private-always" ~root:p_root p_run in
  let row (label, o, rounds, idle, busy, closes, fsyncs, wall_ms, _) =
    [
      label;
      string_of_int rounds;
      string_of_int idle;
      string_of_int closes;
      fcell ~decimals:0 fsyncs;
      fcell ~decimals:2 (fsyncs /. float_of_int busy);
      fcell ~decimals:2 o.Serve.Service.aggregate_charged;
      fcell ~decimals:1 wall_ms;
    ]
  in
  emit ~name:("serveio_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Right; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "wal layout"; "rounds"; "idle"; "window closes"; "fsyncs";
        "fsyncs/busy round"; "aggregate charged"; "wall (ms)" ]
    [ row grouped; row private_ ];
  let _, g_out, _, _, g_busy, g_closes, g_fsyncs, g_ms, g_rec = grouped in
  let _, p_out, _, _, _, _, p_fsyncs, p_ms, p_rec = private_ in
  let speedup = p_ms /. Float.max 1e-9 g_ms in
  Printf.printf
    "grouped window: %.0f fsyncs over %d busy rounds (%.2f/round) vs %.0f \
     per-tenant; %.2fx throughput at equal recovered state\n"
    g_fsyncs g_busy
    (g_fsyncs /. float_of_int g_busy)
    p_fsyncs speedup;
  (* Gate 1: one fsync per busy round.  Every busy round closes the
     window exactly once ([sync = Always]); the only uncounted extras
     allowed are the shutdown flush and segment rotation. *)
  Grid.gate g "window_closes_per_busy_round"
    (g_closes = g_busy && g_fsyncs <= float_of_int (g_closes + 2))
    (Printf.sprintf "%d closes, %d busy rounds, %.0f fsyncs" g_closes g_busy
       g_fsyncs);
  let per_round = g_fsyncs /. float_of_int g_busy in
  Grid.gate g ~value:(J.num per_round) "fsyncs_per_busy_round" (per_round <= 1.1)
    (Printf.sprintf "%.3f, bar 1.1" per_round);
  (* Gate 2a: bit-identical outcomes across layouts, live and recovered. *)
  let g_dig = serveio_digest g_out and p_dig = serveio_digest p_out in
  Grid.gate g "outcomes_bit_identical"
    (g_dig = p_dig && g_rec = g_dig && p_rec = p_dig)
    (Printf.sprintf "grouped %s / private %s / recovered %s %s" g_dig p_dig
       g_rec p_rec);
  (* Gate 2b: the shared window converts saved fsyncs into throughput. *)
  Grid.gate g ~value:(J.num speedup) "throughput_ratio" (speedup >= 2.0)
    (Printf.sprintf "%.2fx, bar 2x" speedup);
  (* Gate 3: off-thread checkpoints must not stall the maintenance
     thread more than synchronous ones ([Durable.Exec], same workload,
     same checkpoint cadence; stalls best-of-[repeat] to damp noise). *)
  let env = durable_env ~rows:ckpt_rows ~join_domain:25 ~horizon:ckpt_horizon in
  let best_stall ~label ~pool =
    Grid.best_of ~repeat (fun () ->
        let dir = bench_root "serveio-ckpt-%s-%s" name label in
        Grid.rmtree dir;
        let config =
          {
            (Durable.Exec.default_config ~dir) with
            Durable.Exec.ckpt_actions = 8;
            sync = Durable.Wal.Always;
            pool;
          }
        in
        let outcome, metrics = telemetry_diff (fun () -> Durable.Exec.run config env) in
        Grid.rmtree dir;
        (outcome, Telemetry.Metrics.value metrics "durable.ckpt_stall_ms"))
  in
  let sync_out, sync_stall = best_stall ~label:"sync" ~pool:None in
  let async_out, async_stall =
    Parallel.Pool.with_pool ~domains:2 (fun pool ->
        best_stall ~label:"async" ~pool:(Some pool))
  in
  Printf.printf
    "checkpoint stall: %.2f ms sync vs %.2f ms off-thread (%d checkpoints)\n"
    sync_stall async_stall sync_out.Durable.Exec.checkpoints;
  Grid.gate g "checkpoints_written" (sync_out.Durable.Exec.checkpoints > 0)
    (Printf.sprintf "%d checkpoints" sync_out.Durable.Exec.checkpoints);
  let cost_bits_equal =
    Int64.bits_of_float sync_out.Durable.Exec.total_cost
    = Int64.bits_of_float async_out.Durable.Exec.total_cost
  in
  Grid.gate g "ckpt_cost_bits_equal" cost_bits_equal
    (Printf.sprintf "%.17g sync vs %.17g off-thread"
       sync_out.Durable.Exec.total_cost async_out.Durable.Exec.total_cost);
  Grid.gate g "ckpt_stall_not_worse"
    (async_stall <= (sync_stall *. 1.25) +. 2.0)
    (Printf.sprintf "%.2f ms off-thread vs %.2f ms sync, bar 1.25x + 2 ms"
       async_stall sync_stall);
  let mode_json (_, o, rounds, idle, busy, closes, fsyncs, wall_ms, recovered) =
    J.obj
      [
        ("rounds", J.int rounds); ("idle_rounds", J.int idle);
        ("window_closes", J.int closes); ("fsyncs", J.num fsyncs);
        ("fsyncs_per_busy_round", J.num (fsyncs /. float_of_int busy));
        ("aggregate_charged", J.num o.Serve.Service.aggregate_charged);
        ("wall_ms", J.num wall_ms);
        ("digest_matches_recovered", string_of_bool (serveio_digest o = recovered));
      ]
  in
  Grid.finish g
    [
      ("tenants", J.int tenants); ("rows", J.int rows); ("horizon", J.int horizon);
      ("limit_factor", J.num limit_factor);
      ("grouped", mode_json grouped); ("private-always", mode_json private_);
      ("throughput_ratio", J.num speedup);
      ("outcomes_bit_identical", string_of_bool (g_dig = p_dig));
      ( "checkpoint",
        J.obj
          [
            ("rows", J.int ckpt_rows); ("horizon", J.int ckpt_horizon);
            ("checkpoints", J.int sync_out.Durable.Exec.checkpoints);
            ("sync_stall_ms", J.num sync_stall);
            ("async_stall_ms", J.num async_stall);
            ("cost_bits_equal", string_of_bool cost_bits_equal);
          ] );
    ]

let run_serveio () =
  run_serveio_grid ~name:"reference" ~tenants:8 ~rows:16 ~horizon:60
    ~limit_factor:1.3 ~repeat:3 ~ckpt_rows:800 ~ckpt_horizon:400 ()

let run_serveio_smoke () =
  run_serveio_grid ~name:"smoke" ~tenants:6 ~rows:12 ~horizon:30
    ~limit_factor:1.2 ~repeat:9 ~ckpt_rows:250 ~ckpt_horizon:160 ()

(* --- ho: first-order vs higher-order maintenance --------------------------- *)

(* The DESIGN.md §13 experiment.  Two questions:

   1. What do materialized delta views do to the engine's batch cost
      curves f_i(k)?  Measured on FO/HO twin synth engines (R indexed on
      the join key, S not), under a uniform and a Zipfian-skewed insert
      stream.  The headline is the ΔR (table 0) curve: under FO a ΔR batch
      scans S once per batch, so f_0(1) starts at the full scan price;
      under HO it becomes one hash probe per tuple into d(V)/d(R) — the
      indexed-probe shape.  The acceptance gate requires HO to beat FO by
      >= 2x at small k there.  On the already-indexed ΔS side the win is a
      flatter slope (the Fit.slope gate), and at large k HO loses its
      lead — per-tuple probing cannot amortize like one shared scan —
      which is exactly the frontier shift the planner must re-learn.

   2. What do the re-derived batch bounds / heuristic do with those
      curves?  A six-table planner grid (both stream shapes plus a scaled
      echo, all measured curves repaired to their subadditive hull)
      compares NAIVE vs LGM(NAIVE) vs A* under both orders, reports the
      per-table batch bounds K_i, and gates on (a) A* with the DP
      heuristic returning bit-identically the uniform-cost (Dijkstra)
      optimum, and (b) exact <= A* <= 2 * exact on an Exact-solvable
      two-table sub-instance. *)

let run_ho_grid ~name ~r_rows ~s_rows ~sizes ~horizon () =
  let g = Grid.create ~grid:name "BENCH_ho.json" in
  section
    (Printf.sprintf
       "Higher-order delta views (%s grid; %dx%d rows, batches up to %d) — \
        FO vs HO cost curves and the re-derived planner bounds"
       name r_rows s_rows
       (List.fold_left max 1 sizes));
  let fo = Ivm.Viewdef.First_order and ho = Ivm.Viewdef.Higher_order in
  let mk ~zipf order =
    let db = Tpcr.Synth.generate ~seed:7 ~r_rows ~s_rows () in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order
        (Tpcr.Synth.join_view db)
    in
    let feeds =
      if zipf then Tpcr.Synth.zipf_feeds ~seed:11 db
      else Tpcr.Synth.insert_feeds ~seed:11 db
    in
    (m, feeds)
  in
  let curves ~zipf table =
    Bridge.Calibrate.measure_orders ~make:(mk ~zipf) ~table ~sizes
  in
  let u0 = curves ~zipf:false 0 and u1 = curves ~zipf:false 1 in
  let z0 = curves ~zipf:true 0 and z1 = curves ~zipf:true 1 in
  let get o cs = List.assoc o cs in
  let at k c = List.assoc k c in
  (* -- the measured curves -------------------------------------------------- *)
  emit ~name:("ho_curves_" ^ name)
    ~aligns:
      (Util.Tablefmt.Right
      :: List.map (fun _ -> Util.Tablefmt.Right) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    ~header:
      [ "k"; "FO dR"; "HO dR"; "FO dS"; "HO dS"; "FO dR zipf"; "HO dR zipf";
        "FO dS zipf"; "HO dS zipf" ]
    (List.map
       (fun k ->
         string_of_int k
         :: List.map
              (fun c -> fcell ~decimals:1 (at k c))
              [ get fo u0; get ho u0; get fo u1; get ho u1; get fo z0;
                get ho z0; get fo z1; get ho z1 ])
       sizes);
  let slope c = Cost.Fit.slope c in
  Printf.printf
    "fitted slopes (cost units per modification): dS %.2f (FO) vs %.2f (HO); \
     zipf dS %.2f (FO) vs %.2f (HO)\n"
    (slope (get fo u1)) (slope (get ho u1)) (slope (get fo z1))
    (slope (get ho z1));
  (* -- the planner grid ----------------------------------------------------- *)
  let upto = 4 * List.fold_left max 1 sizes in
  let repaired nm curve =
    Cost.Func.subadditive_hull ~upto (Bridge.Calibrate.tabulated ~name:nm curve)
  in
  (* Six tables from measured data: both stream shapes for both delta
     sides, plus a scaled echo pair standing in for two smaller tables
     with the same access-path shapes. *)
  let costs_of order =
    [|
      repaired "u_dR" (get order u0);
      repaired "u_dS" (get order u1);
      repaired "z_dR" (get order z0);
      repaired "z_dS" (get order z1);
      Cost.Func.scale 0.5 (repaired "u_dR_half" (get order u0));
      Cost.Func.scale 0.5 (repaired "u_dS_half" (get order u1));
    |]
  in
  let prng = Util.Prng.create ~seed:5 in
  let arrivals =
    Array.init (horizon + 1) (fun _ -> Array.init 6 (fun _ -> Util.Prng.int prng 2))
  in
  (* The response-time constraint is an external SLA: the same C for both
     orders, set from the first-order curves.  Against that fixed C the
     flatter higher-order curves admit far bigger batches — the batch
     bounds K_i the heuristic is re-derived from shift visibly, and
     planning itself nearly degenerates (the constraint stops binding).
     A third configuration re-tightens C proportionally to the HO curves
     so the HO planner is also exercised on a non-trivial instance. *)
  let limit_for costs =
    3.0
    *. Array.fold_left
         (fun acc f -> Float.max acc (Cost.Func.eval f 1))
         0.0 costs
  in
  let limit = limit_for (costs_of fo) in
  let spec_of costs ~limit n_tables horizon' =
    let costs = Array.sub costs 0 n_tables in
    Abivm.Spec.make ~costs ~limit
      ~arrivals:
        (Array.init (horizon' + 1) (fun t ->
             Array.sub arrivals.(min t horizon) 0 n_tables))
  in
  let planner_rows = ref [] and planner_json = ref [] in
  List.iter
    (fun (oname, tag, order, limit) ->
      let costs = costs_of order in
      let spec = spec_of costs ~limit 6 horizon in
      let naive_cost = Abivm.Plan.cost spec (Abivm.Naive.plan spec) in
      let lgm_cost =
        Abivm.Plan.cost spec (Abivm.Transforms.make_lgm spec (Abivm.Naive.plan spec))
      in
      let astar = Abivm.Astar.solve spec in
      let dijkstra = Abivm.Astar.solve ~use_heuristic:false spec in
      (* K_i against a horizon long enough that C binds before the
         total-arrivals clamp: the curve-driven shift.  HO raises the
         bound on the probe side (flatter slope) and lowers it on the
         scan side past the crossover where per-tuple probing stops
         amortizing — both directions are the re-derivation at work. *)
      let bounds =
        Abivm.Astar.batch_bounds
          (Abivm.Spec.make ~costs ~limit
             ~arrivals:(Array.init 241 (fun _ -> Array.make 6 1)))
      in
      Grid.gate g ("astar_eq_dijkstra_" ^ tag)
        (astar.Abivm.Astar.cost = dijkstra.Abivm.Astar.cost)
        (Printf.sprintf "%.2f vs %.2f, %d vs %d expanded" astar.Abivm.Astar.cost
           dijkstra.Abivm.Astar.cost astar.Abivm.Astar.stats.Abivm.Astar.expanded
           dijkstra.Abivm.Astar.stats.Abivm.Astar.expanded);
      (* Exact is feasible on the two-table head of the grid. *)
      let sub = spec_of costs ~limit 2 (min horizon 8) in
      let sub_astar = (Abivm.Astar.solve sub).Abivm.Astar.cost in
      (match Abivm.Exact.solve ~max_expansions:500_000 sub with
      | exception Abivm.Exact.Too_large _ ->
          Grid.gate g ("exact_astar_2exact_" ^ tag) false
            "exact solver exceeded its expansion budget"
      | exact_cost, _ ->
          Grid.gate g ("exact_astar_2exact_" ^ tag)
            (sub_astar >= exact_cost -. 1e-6
            && sub_astar <= (2.0 *. exact_cost) +. 1e-6)
            (Printf.sprintf "exact %.2f, A* %.2f" exact_cost sub_astar));
      planner_rows :=
        [
          oname; fcell ~decimals:1 naive_cost; fcell ~decimals:1 lgm_cost;
          fcell ~decimals:1 astar.Abivm.Astar.cost;
          string_of_int astar.Abivm.Astar.stats.Abivm.Astar.expanded;
          String.concat " "
            (Array.to_list (Array.map string_of_int bounds));
        ]
        :: !planner_rows;
      planner_json :=
        J.obj
          [
            ("order", J.str oname); ("naive", J.num naive_cost);
            ("lgm", J.num lgm_cost); ("astar", J.num astar.Abivm.Astar.cost);
            ("astar_expanded", J.int astar.Abivm.Astar.stats.Abivm.Astar.expanded);
            ( "dijkstra_expanded",
              J.int dijkstra.Abivm.Astar.stats.Abivm.Astar.expanded );
            ("batch_bounds", J.arr (Array.to_list (Array.map J.int bounds)));
          ]
        :: !planner_json)
    [
      ("first-order", "fo", fo, limit);
      ("higher-order", "ho", ho, limit);
      ("higher-order tight C", "ho_tight", ho, limit_for (costs_of ho));
    ];
  emit ~name:("ho_planner_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:
      [ "order"; "NAIVE"; "LGM(NAIVE)"; "A*"; "A* expanded"; "batch bounds K_i" ]
    (List.rev !planner_rows);
  (* -- acceptance gates on the engine curves -------------------------------- *)
  let k_small = List.nth sizes 0 and k_mid = List.nth sizes 1 in
  let speedup k = at k (get fo u0) /. at k (get ho u0) in
  List.iter
    (fun k ->
      Grid.gate g ~value:(J.num (speedup k))
        (Printf.sprintf "ho_speedup_dr_k%d" k)
        (speedup k >= 2.0)
        (Printf.sprintf "HO beats FO on dR by %.1fx, bar 2x" (speedup k)))
    [ k_small; k_mid ];
  Grid.gate g "ho_ds_flatter"
    (Cost.Fit.flatter (get ho u1) ~than:(get fo u1))
    (Printf.sprintf "dS slope %.2f (HO) vs %.2f (FO)" (slope (get ho u1))
       (slope (get fo u1)));
  Printf.printf
    "headline: materializing d(V)/d(R) turns the dR batch from a scan of S \
     into hash probes — %.1fx cheaper at k=%d — while at k=%d the shared \
     scan catches back up (%.1fx); the planner sees the shift through \
     re-derived batch bounds, and A* with the DP heuristic stays \
     bit-identical to uniform-cost search on every instance\n"
    (speedup k_small) k_small
    (List.fold_left max 1 sizes)
    (let kmax = List.fold_left max 1 sizes in
     at kmax (get fo u0) /. at kmax (get ho u0));
  let curve_json stream table (order, curve) =
    J.obj
      [
        ("stream", J.str stream); ("table", J.int table);
        ("order", J.str (Ivm.Viewdef.order_name order));
        ("slope", J.num (slope curve));
        ("points", curve_points curve);
      ]
  in
  Grid.finish g
    [
      ("r_rows", J.int r_rows); ("s_rows", J.int s_rows);
      ( "curves",
        J.arr
          (List.concat_map
             (fun (stream, t, cs) -> List.map (curve_json stream t) cs)
             [ ("uniform", 0, u0); ("uniform", 1, u1); ("zipf", 0, z0); ("zipf", 1, z1) ]) );
      ("planner", J.arr (List.rev !planner_json));
    ]

let run_ho () =
  run_ho_grid ~name:"reference" ~r_rows:400 ~s_rows:400
    ~sizes:[ 1; 8; 64; 256 ] ~horizon:14 ()

let run_ho_smoke () =
  run_ho_grid ~name:"smoke" ~r_rows:160 ~s_rows:160 ~sizes:[ 1; 8; 32 ]
    ~horizon:8 ()

(* --- heavy-light partitioning ---------------------------------------------- *)

(* Skew-aware maintenance on a Zipfian stream: each base relation splits
   into a heavy partition (hot join keys, eager indexed application) and a
   light partition (the tail, batched shared scans), each calibrated to its
   own metered f_i(k); every planner then works the doubled 2n-table spec
   unchanged.  The baseline is the skew-blind planner: same partitioned
   engine, same stream, but planned against one averaged curve per logical
   table, so every batch mixes hot and tail keys and pays the scan.
   Gates: the skew-aware planner's executed cost must beat the blind
   plan's, routing must be content-neutral (uniform and zipf), and the
   layered parallel Exact DP must agree with the sequential solver
   bit-for-bit. *)
let run_partition_grid ~name ~r_rows ~s_rows ~horizon ~sizes ~limit_factor
    ~rates ~exact_horizon () =
  let g = Grid.create ~grid:name "BENCH_partition.json" in
  section
    (Printf.sprintf
       "Heavy-light partitioning (%s grid; %dx%d rows, horizon %d) — \
        skew-aware per-partition planning vs single-curve baseline"
       name r_rows s_rows horizon);
  let exponent = 1.1 and seed_cal = 11 and seed_live = 13 in
  let r_rate, s_rate = rates in
  let names = [| "R"; "S" |] in
  (* R is small and indexed (probe-friendly), S is big and unindexed —
     every unpartitioned dR batch pays a full scan of S.  The partitioned
     deployment adds the heavy path's index on S's join column, so hot dR
     keys apply eagerly via probes and only the tail still scans. *)
  let mk ~indexed () =
    let db = Tpcr.Synth.generate ~seed:7 ~r_rows ~s_rows () in
    if indexed then Relation.Table.create_index db.Tpcr.Synth.s "jk";
    Relation.Meter.reset db.Tpcr.Synth.meter;
    db
  in
  let upto = 4 * List.fold_left max 1 sizes in
  let hull nm curve =
    Cost.Func.subadditive_hull ~upto (Bridge.Calibrate.tabulated ~name:nm curve)
  in
  (* -- split calibration: exact sketch over a stream sample ----------------- *)
  let splits =
    let db = mk ~indexed:true () in
    let view = Tpcr.Synth.join_view db in
    let key_of = Partition.Engine.key_of_view view in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init 2 (fun i ->
        let sk = Partition.Sketch.create () in
        for _ = 1 to 1500 do
          match key_of i (feeds.Tpcr.Updates.next i) with
          | Some k -> Partition.Sketch.observe sk k
          | None -> ()
        done;
        Partition.Split.calibrate ~min_share:0.02 sk)
  in
  emit ~name:("partition_splits_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right ]
    ~header:[ "table"; "heavy keys"; "coverage"; "threshold share" ]
    (List.init 2 (fun i ->
         [
           names.(i);
           string_of_int (Partition.Split.heavy_count splits.(i));
           fcell ~decimals:3 (Partition.Split.coverage splits.(i));
           fcell ~decimals:3 (Partition.Split.threshold splits.(i));
         ]));
  (* -- per-partition cost curves (engine with the heavy-path index) --------- *)
  let fresh_engine ~indexed () =
    let db = mk ~indexed () in
    let view = Tpcr.Synth.join_view db in
    let m = Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view in
    let e =
      Partition.Engine.create
        ~key_of:(Partition.Engine.key_of_view view)
        ~splits m
    in
    (db, e)
  in
  let part_curves =
    let db, e = fresh_engine ~indexed:true () in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init (Partition.Pspec.count ~n:2) (fun p ->
        let table, cls = Partition.Pspec.logical p in
        Partition.Calibrate.measure_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~cls ~sizes)
  in
  let costs_part =
    Array.mapi
      (fun p curve -> hull (Partition.Pspec.label ~names p) curve)
      part_curves
  in
  (* -- skew-blind single-curve calibration on the same engine ---------------
     The blind planner sees one averaged curve per logical table: the
     metered cost of draining a FIFO batch of [k] arrivals through the
     partitioned engine (heavy fraction probing, light fraction scanning,
     in whatever mix the zipf stream delivers). *)
  let drain_logical e ~table =
    List.fold_left
      (fun acc cls ->
        let p = Partition.Pspec.index ~table cls in
        let k = Partition.Engine.pending_in e p in
        if k = 0 then acc
        else
          acc
          +. Relation.Meter.cost_units (Partition.Engine.process e ~partition:p k))
      0.0
      [ Partition.Split.Heavy; Partition.Split.Light ]
  in
  let blind_curves =
    let db, e = fresh_engine ~indexed:true () in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init 2 (fun i ->
        List.map
          (fun k ->
            for _ = 1 to k do
              Partition.Engine.arrive e i (feeds.Tpcr.Updates.next i)
            done;
            (k, drain_logical e ~table:i))
          sizes)
  in
  let costs_blind =
    Array.mapi (fun i curve -> hull ("blind_" ^ names.(i)) curve) blind_curves
  in
  let at k c = List.assoc k c in
  emit ~name:("partition_curves_" ^ name)
    ~aligns:
      (Util.Tablefmt.Right
      :: List.map (fun _ -> Util.Tablefmt.Right) [ 1; 2; 3; 4; 5; 6 ])
    ~header:
      ("k"
      :: (List.init 4 (fun p -> Partition.Pspec.label ~names p)
         @ [ "R blind"; "S blind" ]))
    (List.map
       (fun k ->
         string_of_int k
         :: (List.init 4 (fun p -> fcell ~decimals:1 (at k part_curves.(p)))
            @ [
                fcell ~decimals:1 (at k blind_curves.(0));
                fcell ~decimals:1 (at k blind_curves.(1));
              ]))
       sizes);
  (* -- the shared stream and both specs ------------------------------------- *)
  let logical_arrivals =
    Array.init (horizon + 1) (fun _ -> [| r_rate; s_rate |])
  in
  let db_p, engine = fresh_engine ~indexed:true () in
  let stream =
    Partition.Runner.materialize
      ~feeds:(Tpcr.Synth.zipf_feeds ~seed:seed_live ~exponent db_p)
      ~arrivals:logical_arrivals
  in
  let parr = Partition.Runner.partitioned_arrivals engine stream in
  let limit =
    let worst costs =
      Array.fold_left (fun acc f -> Float.max acc (Cost.Func.eval f 1)) 0.0 costs
    in
    limit_factor *. Float.max (worst costs_blind) (worst costs_part)
  in
  let spec_blind =
    Abivm.Spec.make ~costs:costs_blind ~limit ~arrivals:logical_arrivals
  in
  let spec_part = Partition.Pspec.make ~costs:costs_part ~limit ~arrivals:parr in
  let sol_blind = Abivm.Astar.solve spec_blind in
  let sol_part = Abivm.Astar.solve spec_part in
  (* -- execute both plans on the bit-identical stream and engine ------------ *)
  let part_exec =
    Partition.Runner.run engine stream ~spec:spec_part ~plan:sol_part.Abivm.Astar.plan
  in
  (* The blind plan's logical batch [k_i] drains the first [k_i] arrivals
     of table [i] in FIFO order; per-partition queues preserve that order,
     so the batch is exactly (heavy count, light count) of that prefix. *)
  let blind_cost, blind_batches =
    let _, e = fresh_engine ~indexed:true () in
    let fifo = Array.init 2 (fun _ -> Queue.create ()) in
    let cost = ref 0.0 and batches = ref 0 in
    Array.iteri
      (fun t step ->
        List.iter
          (fun (i, change) ->
            Partition.Engine.arrive e i change;
            Queue.push (Partition.Engine.classify e i change) fifo.(i))
          step;
        match Abivm.Plan.action_at sol_blind.Abivm.Astar.plan t with
        | None -> ()
        | Some action ->
            Array.iteri
              (fun i k ->
                if k > 0 then begin
                  let heavy = ref 0 and light = ref 0 in
                  for _ = 1 to k do
                    match Queue.pop fifo.(i) with
                    | Partition.Split.Heavy -> incr heavy
                    | Partition.Split.Light -> incr light
                  done;
                  List.iter
                    (fun (cls, kp) ->
                      if kp > 0 then begin
                        let p = Partition.Pspec.index ~table:i cls in
                        cost :=
                          !cost
                          +. Relation.Meter.cost_units
                               (Partition.Engine.process e ~partition:p kp);
                        incr batches
                      end)
                    [
                      (Partition.Split.Heavy, !heavy);
                      (Partition.Split.Light, !light);
                    ]
                end)
              action)
      stream;
    if Array.exists (fun q -> Partition.Engine.pending_in e q > 0)
         (Array.init 4 Fun.id)
    then invalid_arg "partition bench: blind plan left modifications queued";
    ignore (Partition.Engine.rows e);
    (!cost, !batches)
  in
  emit ~name:("partition_planner_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "planner"; "tables"; "plan cost"; "executed"; "batches" ]
    [
      [
        "skew-blind"; "2"; fcell ~decimals:1 sol_blind.Abivm.Astar.cost;
        fcell ~decimals:1 blind_cost; string_of_int blind_batches;
      ];
      [
        "skew-aware"; "4"; fcell ~decimals:1 sol_part.Abivm.Astar.cost;
        fcell ~decimals:1 part_exec.Partition.Runner.cost_units;
        string_of_int part_exec.Partition.Runner.batches;
      ];
    ];
  let win = blind_cost /. part_exec.Partition.Runner.cost_units in
  Grid.gate g "skew_win"
    (part_exec.Partition.Runner.cost_units < blind_cost)
    (Printf.sprintf "%.1f vs %.1f units (%.2fx)"
       part_exec.Partition.Runner.cost_units blind_cost win);
  let zipf_identical =
    let db_c = mk ~indexed:false () in
    let m_c =
      Ivm.Maintainer.create ~meter:db_c.Tpcr.Synth.meter
        (Tpcr.Synth.join_view db_c)
    in
    Array.iter
      (List.iter (fun (i, change) -> Ivm.Maintainer.on_arrive m_c i change))
      stream;
    ignore (Ivm.Maintainer.refresh m_c);
    List.equal Relation.Tuple.equal
      (Partition.Engine.rows engine)
      (Ivm.Maintainer.rows m_c)
  in
  Grid.gate g "zipf_contents_identical" zipf_identical
    "partitioned vs unpartitioned engine after the full stream";
  (* -- uniform-key bit-identity --------------------------------------------- *)
  let uniform_identical =
    let db_u = mk ~indexed:false () in
    let m_u =
      Ivm.Maintainer.create ~meter:db_u.Tpcr.Synth.meter
        (Tpcr.Synth.join_view db_u)
    in
    let _, e_u = fresh_engine ~indexed:true () in
    let u_arrivals = Array.init 9 (fun _ -> [| 3; 3 |]) in
    let u_stream =
      Partition.Runner.materialize
        ~feeds:(Tpcr.Synth.insert_feeds ~seed:seed_live db_u)
        ~arrivals:u_arrivals
    in
    Array.for_all
      (fun step ->
        List.iter
          (fun (i, change) ->
            Ivm.Maintainer.on_arrive m_u i change;
            Partition.Engine.arrive e_u i change)
          step;
        ignore (Ivm.Maintainer.refresh m_u);
        ignore (Partition.Engine.refresh e_u);
        List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m_u)
          (Partition.Engine.rows e_u))
      u_stream
    && Result.is_ok (Partition.Engine.check_consistent e_u)
  in
  Grid.gate g "uniform_bit_identical" uniform_identical
    "per-step view contents, partitioned vs unpartitioned";
  (* -- parallel Exact DP cross-check on the partitioned spec ----------------
     A thin head of the partitioned instance (arrivals capped at 1) keeps
     the full 2n-table state space inside the DP's expansion budget; the
     gate is about solver agreement, not workload scale. *)
  let spec_small =
    Partition.Pspec.make ~costs:costs_part ~limit
      ~arrivals:
        (Array.init (exact_horizon + 1) (fun t ->
             Array.map (fun k -> min k 1) parr.(t)))
  in
  let domains = List.sort_uniq compare (1 :: !Grid.domains) in
  let exact_results =
    List.map
      (fun d ->
        match Abivm.Exact.solve ~max_expansions:4_000_000 ~domains:d spec_small with
        | cost, plan -> Some (d, cost, plan)
        | exception Abivm.Exact.Too_large _ -> None)
      domains
  in
  (match exact_results with
  | Some (_, c1, p1) :: rest when List.for_all Option.is_some rest ->
      let agree =
        List.for_all
          (fun r ->
            match r with
            | Some (_, c, p) ->
                Int64.bits_of_float c = Int64.bits_of_float c1
                && Abivm.Plan.actions p = Abivm.Plan.actions p1
            | None -> false)
          rest
      in
      Grid.gate g "parallel_exact_bit_identical" agree
        (Printf.sprintf "cost %.2f at horizon %d, domains %s" c1 exact_horizon
           (String.concat "," (List.map string_of_int domains)));
      let sub_astar = (Abivm.Astar.solve spec_small).Abivm.Astar.cost in
      Grid.gate g "exact_astar_2exact"
        (sub_astar >= c1 -. 1e-6 && sub_astar <= (2.0 *. c1) +. 1e-6)
        (Printf.sprintf "exact %.2f, A* %.2f" c1 sub_astar)
  | _ ->
      Grid.gate g "parallel_exact_bit_identical" false
        "exact solver exceeded its expansion budget");
  Printf.printf
    "headline: splitting each relation by key frequency gives the planner \
     honest per-partition curves — hot keys flush eagerly through the \
     index, the tail amortizes into shared scans — beating the \
     single-curve deployment by %.2fx executed on the same Zipfian stream\n"
    win;
  let curve_json label points =
    J.obj [ ("partition", J.str label); ("points", curve_points points) ]
  in
  Grid.finish g
    [
      ("r_rows", J.int r_rows); ("s_rows", J.int s_rows);
      ("horizon", J.int horizon); ("exponent", J.num exponent);
      ( "splits",
        J.arr
          (List.init 2 (fun i ->
               J.obj
                 [
                   ("table", J.str names.(i));
                   ("heavy_keys", J.int (Partition.Split.heavy_count splits.(i)));
                   ("coverage", J.num (Partition.Split.coverage splits.(i)));
                   ("threshold", J.num (Partition.Split.threshold splits.(i)));
                 ])) );
      ( "curves",
        J.arr
          (Array.to_list
             (Array.mapi
                (fun p c -> curve_json (Partition.Pspec.label ~names p) c)
                part_curves)
          @ Array.to_list
              (Array.mapi
                 (fun i c -> curve_json ("blind_" ^ names.(i)) c)
                 blind_curves)) );
      ( "planner",
        J.obj
          [
            ("blind_plan", J.num sol_blind.Abivm.Astar.cost);
            ("blind_executed", J.num blind_cost);
            ("part_plan", J.num sol_part.Abivm.Astar.cost);
            ("part_executed", J.num part_exec.Partition.Runner.cost_units);
            ("win", J.num win);
          ] );
    ]

let run_partition () =
  run_partition_grid ~name:"reference" ~r_rows:120 ~s_rows:700 ~horizon:30
    ~sizes:[ 1; 2; 4; 8; 16; 32 ] ~limit_factor:1.45 ~rates:(4, 8)
    ~exact_horizon:6 ()

let run_partition_smoke () =
  run_partition_grid ~name:"smoke" ~r_rows:100 ~s_rows:500 ~horizon:20
    ~sizes:[ 1; 4; 16 ] ~limit_factor:1.45 ~rates:(4, 8) ~exact_horizon:5 ()

let sections =
  [
    ("fig1", run_fig1);
    ("intro", run_intro);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("tightness", run_tightness);
    ("ablation", run_ablation);
    ("opflow", run_opflow);
    ("conjectures", run_conjectures);
    ("multiview", run_multiview);
    ("multiview-par", run_multiview_par);
    ("multiview-par-smoke", run_multiview_par_smoke);
    ("astar", run_astar);
    ("astar-smoke", run_astar_smoke);
    ("robust", run_robust);
    ("robust-smoke", run_robust_smoke);
    ("durable", run_durable);
    ("durable-smoke", run_durable_smoke);
    ("columnar", run_columnar);
    ("columnar-smoke", run_columnar_smoke);
    ("serve", run_serve);
    ("serve-smoke", run_serve_smoke);
    ("serve-io", run_serveio);
    ("serve-io-smoke", run_serveio_smoke);
    ("ho", run_ho);
    ("ho-smoke", run_ho_smoke);
    ("partition", run_partition);
    ("partition-smoke", run_partition_smoke);
    ("micro", run_micro);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let trace = ref None and metrics = ref false in
  let rec strip_flags = function
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--csv: %s is not a directory\n" dir;
          exit 1
        end;
        csv_dir := Some dir;
        strip_flags rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        strip_flags rest
    | "--metrics" :: rest ->
        metrics := true;
        strip_flags rest
    | "--domains" :: spec :: rest ->
        let parsed =
          try
            List.map
              (fun s ->
                let d = int_of_string (String.trim s) in
                if d < 1 then failwith "domain counts must be >= 1";
                d)
              (String.split_on_char ',' spec)
          with _ ->
            Printf.eprintf
              "--domains: expected a comma-separated list of positive ints \
               (e.g. 1,2,4), got %S\n"
              spec;
            exit 1
        in
        if parsed = [] then begin
          Printf.eprintf "--domains: empty list\n";
          exit 1
        end;
        Grid.domains := parsed;
        strip_flags rest
    | section :: rest -> section :: strip_flags rest
    | [] -> []
  in
  let args = strip_flags args in
  if !trace <> None || !metrics then begin
    let sinks =
      match !trace with
      | Some path -> [ Telemetry.Sink.jsonl_file path ]
      | None -> []
    in
    Telemetry.enable ~sinks ()
  end;
  let requested =
    if args <> [] then args
    else
      (* The smoke grids write the same BENCH_*.json as their reference
         grids; running them too would overwrite those with toy data. *)
      List.filter
        (fun s -> not (String.ends_with ~suffix:"-smoke" s))
        (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf
            "unknown section %S\nusage: main.exe [--csv DIR] [--trace \
             FILE.jsonl] [--metrics] [--domains 1,2,4] [SECTION...]\n\
             sections: %s\n"
            name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested;
  if Telemetry.enabled () then begin
    if !metrics then begin
      match Telemetry.snapshot () with
      | [] -> ()
      | snap ->
          Printf.printf "\nmetrics:\n%s" (Telemetry.Metrics.to_table snap)
    end;
    Telemetry.disable ()
  end
