(* Tests for the multi-view coordinator: cost accounting with shared-work
   discounts, validity, and the piggyback policy. *)

let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let view name costs limit = { Multiview.Coordinator.name; costs; limit }

let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0
let steep = Cost.Func.affine ~a:3.0 ~b:10.0

let uniform ~horizon per_step = Array.make (horizon + 1) per_step

let test_validation () =
  let arrivals = uniform ~horizon:5 [| 1 |] in
  Alcotest.check_raises "no views" (Invalid_argument "Multiview: no views")
    (fun () ->
      ignore
        (Multiview.Coordinator.independent ~views:[||] ~shared_setup:[| 0.0 |]
           ~arrivals ()));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Multiview: shared_setup width mismatch") (fun () ->
      ignore
        (Multiview.Coordinator.independent
           ~views:[| view "v" [| flat |] 100.0 |]
           ~shared_setup:[| 0.0; 0.0 |] ~arrivals ()));
  Alcotest.check_raises "negative discount"
    (Invalid_argument "Multiview: negative discount") (fun () ->
      ignore
        (Multiview.Coordinator.independent
           ~views:[| view "v" [| flat |] 100.0 |]
           ~shared_setup:[| -1.0 |] ~arrivals ()))

let test_single_view_matches_online_style_cost () =
  (* One view, no sharing possible: discounted = undiscounted, valid. *)
  let arrivals = uniform ~horizon:60 [| 1; 1 |] in
  let out =
    Multiview.Coordinator.independent
      ~views:[| view "only" [| flat; steep |] 80.0 |]
      ~shared_setup:[| 0.0; 0.0 |] ~arrivals ()
  in
  checkb "valid" true out.Multiview.Coordinator.valid;
  checkf "no discount possible" out.Multiview.Coordinator.undiscounted_cost
    out.Multiview.Coordinator.total_cost;
  checkb "no co-flushes" true (out.Multiview.Coordinator.co_flushes = 0)

let test_identical_views_discounted () =
  (* Two identical views over one table flush at identical times, so every
     flush is a co-flush and earns the discount. *)
  let arrivals = uniform ~horizon:50 [| 1 |] in
  let views = [| view "a" [| steep |] 60.0; view "b" [| steep |] 60.0 |] in
  let out =
    Multiview.Coordinator.independent ~views ~shared_setup:[| 8.0 |] ~arrivals ()
  in
  checkb "valid" true out.Multiview.Coordinator.valid;
  checkb "co-flushes happened" true (out.Multiview.Coordinator.co_flushes > 0);
  checkb "discount applied" true
    (out.Multiview.Coordinator.total_cost
    < out.Multiview.Coordinator.undiscounted_cost -. 1e-9)

let test_discount_floor () =
  (* A huge discount cannot push a table's cost below the most expensive
     single participant. *)
  let arrivals = uniform ~horizon:30 [| 1 |] in
  let views = [| view "a" [| steep |] 50.0; view "b" [| steep |] 50.0 |] in
  let out =
    Multiview.Coordinator.independent ~views ~shared_setup:[| 1e9 |] ~arrivals ()
  in
  (* Total cost must stay at least half the raw sum (the max participant). *)
  checkb "floored" true
    (out.Multiview.Coordinator.total_cost
    >= (out.Multiview.Coordinator.undiscounted_cost /. 2.0) -. 1e-9)

let test_piggyback_beats_independent_on_staggered_views () =
  (* Views with different constraints flush at different times when
     independent; piggyback aligns them and earns discounts. *)
  let arrivals = uniform ~horizon:200 [| 1 |] in
  let views =
    [| view "tight" [| steep |] 45.0; view "loose" [| steep |] 150.0 |]
  in
  let shared_setup = [| 14.0 |] in
  (* >= f(1) = 13: piggyback rule fires *)
  let ind = Multiview.Coordinator.independent ~views ~shared_setup ~arrivals () in
  let pig = Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals () in
  checkb "independent valid" true ind.Multiview.Coordinator.valid;
  checkb "piggyback valid" true pig.Multiview.Coordinator.valid;
  checkb "piggyback co-flushes more" true
    (pig.Multiview.Coordinator.co_flushes > ind.Multiview.Coordinator.co_flushes);
  checkb "piggyback cheaper" true
    (pig.Multiview.Coordinator.total_cost < ind.Multiview.Coordinator.total_cost)

let test_piggyback_never_worse_with_zero_discount () =
  (* With no shared work to save, the piggyback rule must not fire at all
     and the two strategies coincide. *)
  let arrivals = uniform ~horizon:100 [| 1 |] in
  let views =
    [| view "tight" [| steep |] 45.0; view "loose" [| steep |] 150.0 |]
  in
  let shared_setup = [| 0.0 |] in
  let ind = Multiview.Coordinator.independent ~views ~shared_setup ~arrivals () in
  let pig = Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals () in
  checkf "same cost" ind.Multiview.Coordinator.total_cost
    pig.Multiview.Coordinator.total_cost

let test_per_view_costs_sum_to_undiscounted () =
  let arrivals = uniform ~horizon:80 [| 1; 2 |] in
  let views =
    [| view "a" [| flat; steep |] 90.0; view "b" [| steep; flat |] 120.0 |]
  in
  let out =
    Multiview.Coordinator.piggyback ~views ~shared_setup:[| 10.0; 10.0 |]
      ~arrivals ()
  in
  let sum =
    Array.fold_left (fun acc (_, c) -> acc +. c) 0.0
      out.Multiview.Coordinator.per_view_cost
  in
  checkb "per-view sums to raw total" true
    (Float.abs (sum -. out.Multiview.Coordinator.undiscounted_cost) < 1e-6)

let test_pinned_outcomes () =
  (* A seeded three-view, two-table instance whose outcomes were recorded
     from an earlier build: the run loop must keep reproducing them bit
     for bit, with and without a domain pool. *)
  let g = Util.Prng.create ~seed:2005 in
  let arrivals =
    Array.init 151 (fun _ -> Array.init 2 (fun _ -> Util.Prng.int g 3))
  in
  let steep = Cost.Func.affine ~a:3.0 ~b:10.5 in
  let mild = Cost.Func.affine ~a:1.25 ~b:6.75 in
  let views =
    [|
      view "tight" [| steep; mild |] 60.0;
      view "mid" [| mild; steep |] 140.0;
      view "loose" [| steep; steep |] 230.0;
    |]
  in
  let shared_setup = [| 14.5; 9.25 |] in
  let check label ~bits ~co_flushes (out : Multiview.Coordinator.outcome) =
    checkb (label ^ " valid") true out.valid;
    Alcotest.check Alcotest.int64 (label ^ " total_cost bits") bits
      (Int64.bits_of_float out.total_cost);
    Alcotest.check Alcotest.int (label ^ " co_flushes") co_flushes
      out.co_flushes
  in
  let run ?pool label =
    check (label ^ "independent") ~bits:4657401512887058432L ~co_flushes:6
      (Multiview.Coordinator.independent ?pool ~views ~shared_setup ~arrivals
         ());
    check (label ^ "piggyback") ~bits:4657362480224272384L ~co_flushes:9
      (Multiview.Coordinator.piggyback ?pool ~views ~shared_setup ~arrivals ())
  in
  run "";
  Parallel.Pool.with_pool ~domains:2 (fun pool -> run ~pool "pooled ")

let () =
  Alcotest.run "multiview"
    [
      ( "coordinator",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "single view" `Quick
            test_single_view_matches_online_style_cost;
          Alcotest.test_case "identical views discounted" `Quick
            test_identical_views_discounted;
          Alcotest.test_case "discount floor" `Quick test_discount_floor;
          Alcotest.test_case "piggyback beats independent" `Quick
            test_piggyback_beats_independent_on_staggered_views;
          Alcotest.test_case "piggyback inert without discount" `Quick
            test_piggyback_never_worse_with_zero_discount;
          Alcotest.test_case "per-view sums" `Quick
            test_per_view_costs_sum_to_undiscounted;
          Alcotest.test_case "pinned outcomes are bit-identical" `Quick
            test_pinned_outcomes;
        ] );
    ]
