(* Parsing of `pinpoint check` standard output and scoring of its reports
   against the generator's planted ground truth.

   The output is one block per checker, then an optional incident summary:

     == use-after-free: 2 report(s) (888 sources, 22 candidates)
     use-after-free: a.mc:17 -> a.mc:23 (f -> g)
     ...
     == incidents: 3 incident(s); seg-build: 3

   A header may end with " [degraded queries: H halved, L linear, G gave-up]". *)

module Truth = Pinpoint_workload.Truth

type checker = {
  name : string;
  n_reports : int;
  sources : int;
  candidates : int;
  degraded : int;  (** queries answered below the full solver rung *)
  lines : string list;  (** report lines, in output order *)
}

type t = { checkers : checker list; incidents : int }

exception Malformed of string

let parse_header line =
  try
    Scanf.sscanf line "== %s@: %d report(s) (%d sources, %d candidates)%s@\n"
      (fun name n_reports sources candidates rest ->
        let degraded =
          if rest = "" then 0
          else
            Scanf.sscanf rest " [degraded queries: %d halved, %d linear, %d gave-up]"
              (fun h l g -> h + l + g)
        in
        { name; n_reports; sources; candidates; degraded; lines = [] })
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> raise (Malformed line)

let parse text =
  let finish c = { c with lines = List.rev c.lines } in
  let rec go acc current incidents = function
    | [] ->
      let acc = match current with Some c -> finish c :: acc | None -> acc in
      { checkers = List.rev acc; incidents }
    | "" :: rest -> go acc current incidents rest
    | line :: rest when String.starts_with ~prefix:"== incidents: " line ->
      let n = Scanf.sscanf line "== incidents: %d" Fun.id in
      go acc current (incidents + n) rest
    | line :: rest when String.starts_with ~prefix:"== " line ->
      let acc = match current with Some c -> finish c :: acc | None -> acc in
      go acc (Some (parse_header line)) incidents rest
    | line :: rest -> (
      match current with
      | Some c when String.starts_with ~prefix:(c.name ^ ": ") line ->
        go acc (Some { c with lines = line :: c.lines }) incidents rest
      | _ -> raise (Malformed line))
  in
  go [] None 0 (String.split_on_char '\n' text)

(* (source line, sink line) of a report line "checker: f:12 -> g:30 (a -> b)". *)
let lines_of_report line =
  try Scanf.sscanf line "%s@: %s@:%d -> %s@:%d (" (fun _ _ src _ sink -> (src, sink))
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> raise (Malformed line)

type score = {
  planted : int;  (** real planted bugs of the checked kinds *)
  found : int;  (** of those, reported *)
  false_reports : int;  (** reported sources that are no planted real bug *)
}

(* Score every checker's reports against [truth], one report per source
   line as [Truth.classify] expects.  Checkers without planted bugs of
   their kind count only towards [false_reports]. *)
let score truth t =
  List.fold_left
    (fun acc c ->
      let keys =
        List.sort_uniq compare (List.map (fun l -> (fst (lines_of_report l), 0)) c.lines)
      in
      let s = Truth.classify ~kind:c.name truth keys in
      {
        planted = acc.planted + s.Truth.n_real_planted;
        found = acc.found + s.Truth.n_found;
        false_reports = acc.false_reports + s.Truth.n_fp;
      })
    { planted = 0; found = 0; false_reports = 0 }
    t.checkers
