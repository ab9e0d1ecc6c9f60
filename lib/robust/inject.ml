let in_tables tables i =
  match tables with None -> true | Some l -> List.mem i l

let rate_shift ?tables ~at ~factor d =
  if factor < 0.0 then invalid_arg "Inject.rate_shift: negative factor";
  Array.mapi
    (fun t row ->
      if t < at then row
      else
        Array.mapi
          (fun i c ->
            if in_tables tables i then
              int_of_float (Float.round (factor *. float_of_int c))
            else c)
          row)
    d

let blackout ~from ~len d =
  if len < 0 then invalid_arg "Inject.blackout: negative length";
  Array.mapi
    (fun t row ->
      if t >= from && t < from + len then Array.make (Array.length row) 0
      else row)
    d

let burst ?tables ~at ~extra ~len d =
  if extra < 0 then invalid_arg "Inject.burst: negative extra";
  if len < 0 then invalid_arg "Inject.burst: negative length";
  Array.mapi
    (fun t row ->
      if t >= at && t < at + len then
        Array.mapi (fun i c -> if in_tables tables i then c + extra else c) row
      else row)
    d

let table_swap ~at i j d =
  Array.mapi
    (fun t row ->
      if t < at then row
      else begin
        let row = Array.copy row in
        let tmp = row.(i) in
        row.(i) <- row.(j);
        row.(j) <- tmp;
        row
      end)
    d

let cost_scale factor costs = Array.map (Cost.Func.scale factor) costs

let cost_noise ~seed ~amp costs =
  let root = Util.Prng.create ~seed in
  Array.map
    (fun f ->
      let table_seed = Int64.to_int (Util.Prng.bits64 root) land max_int in
      Cost.Func.jitter ~seed:table_seed ~amp f)
    costs

type scenario = {
  label : string;
  model : Abivm.Spec.t;
  actual : Abivm.Spec.t;
}

let scenario ?(label = "scenario") ~model ~arrivals ~costs () =
  let actual =
    Abivm.Spec.make
      ~costs:(costs (Abivm.Spec.costs model))
      ~limit:(Abivm.Spec.limit model)
      ~arrivals:(arrivals (Abivm.Spec.arrivals model))
  in
  { label; model; actual }

let drifted ?label ?shift_at ?(rate_factor = 2.0) ?(cost_factor = 2.0) model =
  let at =
    match shift_at with
    | Some t -> t
    | None -> (Abivm.Spec.horizon model / 2) + 1
  in
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "drift(shift@%d x%g, cost x%g)" at rate_factor
          cost_factor
  in
  scenario ~label ~model
    ~arrivals:(rate_shift ~at ~factor:rate_factor)
    ~costs:(cost_scale cost_factor) ()
