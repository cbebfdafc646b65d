(* `scaling`: the paper's Figure 10 at layer granularity.  One traced
   in-process batch pass (jobs 1, all checkers) per subject size, then a
   least-squares line of each layer's self time and allocation against
   KLoC.  A slope with R² near 1 is near-linear scaling of that layer. *)

module Gen = Pinpoint_workload.Gen
module Fit = Pinpoint_util.Fit

let mlocs = [ 0.02; 0.05; 0.1; 0.2 ]

type point = { kloc : float; summary : Layers.summary }

let measure ~dir ~seed =
  List.map
    (fun mloc ->
      let subject = Gen.generate ~name:"scaling" (Gen.scaled ~seed ~mloc ()) in
      let path = Filename.concat dir (Printf.sprintf "scaling-%g.mc" mloc) in
      Workloads.write_file path subject.Gen.source;
      let _, pass =
        Workloads.traced_call (fun () -> Workloads.batch_pass ~jobs:1 ~store_dir:None [ path ])
      in
      Sys.remove path;
      let p =
        { kloc = float_of_int subject.Gen.loc /. 1000.0; summary = Layers.summarise pass.spans }
      in
      Printf.printf "  %6.1f KLoC: traced wall %.3f s\n%!" p.kloc p.summary.Layers.wall_s;
      p)
    mlocs

let print oc points =
  let fit f = Fit.linear (Array.of_list (List.map (fun p -> (p.kloc, f p.summary)) points)) in
  Printf.fprintf oc "%-10s %14s %8s %16s %8s\n" "layer" "self ms/KLoC" "R2" "alloc MB/KLoC" "R2";
  let row name time alloc =
    let t = fit time and a = fit alloc in
    Printf.fprintf oc "%-10s %14.4f %8.4f %16.4f %8.4f\n" name (1000.0 *. t.Fit.slope) t.Fit.r2
      (a.Fit.slope /. Workloads.mb) a.Fit.r2
  in
  List.iter
    (fun l ->
      let time s = (Layers.layer s l).Layers.self_s in
      (* a layer the batch pass never enters has nothing to fit *)
      if List.exists (fun p -> time p.summary > 0.0) points then
        row l time (fun s -> (Layers.layer s l).Layers.alloc_bytes))
    Layers.layers;
  row "total" (fun s -> s.Layers.wall_s) (fun s -> s.Layers.alloc_bytes)
