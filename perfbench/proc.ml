(* Child processes: spawn the pinpoint binary, wait for it with its own
   resource usage, and talk to a server child over its stdin/stdout. *)

type status = {
  code : int;  (** exit code, or 128 + signal *)
  maxrss_kb : int;  (** the child's peak resident set *)
  timed_out : bool;  (** killed by the benchmark at its deadline *)
}

external wait4 : int -> bool -> (int * int) option = "perfbench_wait4"

let now = Pinpoint_util.Metrics.now_mono

(* Poll rather than block so a hung child can be killed at [deadline];
   the 2 ms step bounds the error this adds to a measured wall time. *)
let wait ~deadline pid =
  let status timed_out (code, maxrss_kb) = { code; maxrss_kb; timed_out } in
  let rec poll () =
    match wait4 pid true with
    | Some r -> status false r
    | None when now () > deadline ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (* a blocking wait4 never returns None *)
      status true (Option.get (wait4 pid false))
    | None ->
      Unix.sleepf 0.002;
      poll ()
  in
  poll ()

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Run [prog args] to completion with stdout and stderr sent to files;
   the wall time runs from just before the spawn to the reaping. *)
let run ~deadline ~stdout ~stderr prog args =
  (* stdin: an empty pipe *)
  let input, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  let out = open_out_fd stdout and err = open_out_fd stderr in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ input; out; err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) input out err)
  in
  let status = wait ~deadline pid in
  (status, now () -. t0)

(* ---------- a line-oriented client for [pinpoint serve] ---------- *)

type server = {
  pid : int;
  to_srv : Unix.file_descr;
  from_srv : Unix.file_descr;
  pending : Buffer.t;  (** bytes read past the last returned line *)
}

let spawn_server ~stderr prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ in_r; out_w; err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w err)
  in
  { pid; to_srv = in_w; from_srv = out_r; pending = Buffer.create 65536 }

let send s line =
  let b = Bytes.of_string (line ^ "\n") in
  ignore (Unix.write s.to_srv b 0 (Bytes.length b))

(* The next response line, or [None] on EOF or once [deadline] passes. *)
let recv ~deadline s =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let contents = Buffer.contents s.pending in
    match String.index_opt contents '\n' with
    | Some i ->
      Buffer.clear s.pending;
      Buffer.add_substring s.pending contents (i + 1) (String.length contents - i - 1);
      Some (String.sub contents 0 i)
    | None ->
      let left = deadline -. now () in
      if left <= 0.0 then None
      else (
        match Unix.select [ s.from_srv ] [] [] left with
        | [], _, _ -> None
        | _ ->
          let n = Unix.read s.from_srv chunk 0 (Bytes.length chunk) in
          if n = 0 then None
          else begin
            Buffer.add_subbytes s.pending chunk 0 n;
            go ()
          end)
  in
  go ()

(* Send one request and time it client-side: from the write to the whole
   response line. *)
let request ~deadline s line =
  let t0 = now () in
  match send s line with
  | exception Unix.Unix_error _ -> (None, now () -. t0)
  | () ->
    let resp = recv ~deadline s in
    (resp, now () -. t0)

(* Ask the server to shut down, close its pipes and reap it. *)
let stop ~deadline s =
  (try
     send s {|{"op":"shutdown"}|};
     ignore (recv ~deadline s)
   with Unix.Unix_error _ -> ());
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ s.to_srv; s.from_srv ];
  wait ~deadline s.pid
