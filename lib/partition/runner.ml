type stream = (int * Ivm.Change.t) list array

let materialize ~feeds ~arrivals =
  let horizon1 = Array.length arrivals in
  let stream = Array.make horizon1 [] in
  for t = 0 to horizon1 - 1 do
    let acc = ref [] in
    Array.iteri
      (fun i k ->
        for _ = 1 to k do
          acc := (i, feeds.Tpcr.Updates.next i) :: !acc
        done)
      arrivals.(t);
    stream.(t) <- List.rev !acc
  done;
  stream

let partitioned_arrivals e stream =
  Array.map
    (fun step ->
      let counts = Array.make (Engine.n_partitions e) 0 in
      List.iter
        (fun (i, change) ->
          let p = Engine.partition_of e i change in
          counts.(p) <- counts.(p) + 1)
        step;
      counts)
    stream

type result = { cost_units : float; batches : int }

let run e stream ~spec ~plan =
  (match Abivm.Plan.validate spec plan with
  | Ok () -> ()
  | Error v ->
      invalid_arg
        (Format.asprintf "Partition.Runner.run: invalid plan: %a"
           Abivm.Plan.pp_violation v));
  let horizon = Abivm.Spec.horizon spec in
  if Array.length stream <> horizon + 1 then
    invalid_arg "Partition.Runner.run: stream length must be horizon + 1";
  if Array.exists (fun q -> q > 0) (Engine.pending e) then
    invalid_arg "Partition.Runner.run: engine has pending modifications";
  let cost = ref 0.0 and batches = ref 0 in
  for t = 0 to horizon do
    List.iter (fun (i, change) -> Engine.arrive e i change) stream.(t);
    match Abivm.Plan.action_at plan t with
    | None -> ()
    | Some action ->
        Array.iteri
          (fun p k ->
            if k > 0 then begin
              let snap = Engine.process e ~partition:p k in
              cost := !cost +. Relation.Meter.cost_units snap;
              incr batches
            end)
          action
  done;
  if Array.exists (fun q -> q > 0) (Engine.pending e) then
    invalid_arg "Partition.Runner.run: plan left modifications queued";
  { cost_units = !cost; batches = !batches }
