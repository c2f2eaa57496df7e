(* A client of the daemon: spawns [nscvp serve --socket], speaks its
   NDJSON protocol (docs/SERVICE.md) over one connection, checks every
   response against a solo run of the same job, and stops the daemon. *)

module Json = Nsc_metrics.Json

type t = { pid : int; sock : string; fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Daemons still running; killed and reaped if the benchmark exits early. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let forget pid = live := List.filter (( <> ) pid) !live

let spawn ~nscvp ~sock ~domains =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let log = Unix.openfile (sock ^ ".log") [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let args =
    [| nscvp; "serve"; "--socket"; sock; "--domains"; string_of_int domains; "--queue"; "64";
       "--cache-bound"; "4" |]
  in
  let pid = Unix.create_process nscvp args stdin_r log log in
  Unix.close stdin_r;
  Unix.close log;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            failwith ("nscvp serve exited before listening; see " ^ sock ^ ".log"));
        if Unix.gettimeofday () > deadline then failwith "nscvp serve did not listen in 30 s";
        Unix.sleepf 0.0005;
        connect ()
  in
  let fd = connect () in
  { pid; sock; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv t = input_line t.ic
let starts prefix l = String.starts_with ~prefix l

let ping t =
  send t {|{"op":"ping"}|};
  let l = recv t in
  if not (starts {|{"op":"pong"|} l) then failwith ("ping answered " ^ l)

(* Drain, stop and reap the daemon. *)
let shutdown t =
  send t {|{"op":"shutdown"}|};
  let rec summary () = if starts {|{"op":"shutdown"|} (recv t) then () else summary () in
  summary ();
  Unix.close t.fd;
  ignore (Unix.waitpid [] t.pid);
  forget t.pid;
  try Unix.unlink (t.sock ^ ".log") with Unix.Unix_error _ -> ()

let submit_line id (job : Gen.job) =
  let num n = Json.Num (float_of_int n) in
  let jacobi n tol =
    Json.Obj [ ("kind", Json.Str "jacobi"); ("n", num n); ("tol", Json.Num tol); ("max_iters", num 1000) ]
  in
  let fields =
    match job with
    | Gen.Jacobi { n; tol } -> [ ("workload", jacobi n tol) ]
    | Gen.Source s ->
        [ ("workload", Json.Obj [ ("kind", Json.Str "source"); ("text", Json.Str (Gen.source_text s)) ]) ]
    | Gen.Faulted { fault_seed } ->
        [ ("workload", jacobi Gen.faulted_n Gen.faulted_tol);
          ("faults", Json.Str Gen.fault_spec);
          ("fault_seed", num fault_seed) ]
    | Gen.Solve_n9 | Gen.Hypercube_n9 | Gen.Lang _ | Gen.Multigrid _ ->
        invalid_arg "Client.submit_line: not a served job"
  in
  Json.to_string (Json.Obj (("op", Json.Str "submit") :: ("id", Json.Str id) :: fields))

type served = {
  job : Gen.job;
  line : string;  (* the submit line *)
  sent : float;  (* before the submit line was written *)
  got : float;  (* after the response line was read *)
  resp : Json.t;  (* [Null] when no response came back *)
}

(* Submit [jobs] with ids from [first_id], drain, and read back one
   response per job. *)
let batch t ~first_id jobs =
  let n = Array.length jobs in
  let lines = Array.mapi (fun i job -> submit_line (Printf.sprintf "j%d" (first_id + i)) job) jobs in
  let sent =
    Array.map
      (fun l ->
        let s = Unix.gettimeofday () in
        send t l;
        s)
      lines
  in
  send t {|{"op":"drain"}|};
  let got = Array.make n 0.0 and resp = Array.make n Json.Null in
  let rec read () =
    let l = recv t in
    let tm = Unix.gettimeofday () in
    if starts {|{"op":"drained"|} l then Array.iteri (fun i g -> if g = 0.0 then got.(i) <- tm) got
    else begin
      (match Json.parse l with
      | Ok j -> (
          match Option.bind (Json.member "id" j) Json.to_str with
          | Some id when String.length id > 1 -> (
              match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
              | Some k when k >= first_id && k < first_id + n ->
                  got.(k - first_id) <- tm;
                  resp.(k - first_id) <- j
              | _ -> ())
          | _ -> ())
      | Error _ -> ());
      read ()
    end
  in
  read ();
  Array.init n (fun i -> { job = jobs.(i); line = lines.(i); sent = sent.(i); got = got.(i); resp = resp.(i) })

(* --- answer checks -------------------------------------------------------- *)

let expectations : (string, ((string * float) list, string) result) Hashtbl.t = Hashtbl.create 64

(* The response fields a solo run of [job] produces, memoised by job. *)
let expect job =
  let key = Gen.to_string job in
  match Hashtbl.find_opt expectations key with
  | Some e -> e
  | None ->
      let e = Work.solo job in
      Hashtbl.add expectations key e;
      e

let field resp k =
  match Json.member k resp with
  | Some (Json.Num x) -> Some x
  | Some (Json.Bool b) -> Some (if b then 1.0 else 0.0)
  | _ -> None

let matches resp fields =
  List.for_all (fun (k, v) -> match field resp k with Some x -> Float.equal x v | None -> false) fields

(* An ok response must equal a solo run of the same job; a faulted job
   must also converge exactly like its clean twin, with every injected
   fault recovered. *)
let check (s : served) =
  match Json.member "status" s.resp with
  | Some (Json.Str "ok") -> (
      match expect s.job with
      | Error e -> Error ("solo run failed: " ^ e)
      | Ok want ->
          let twin_ok =
            match s.job with
            | Gen.Faulted _ -> (
                let unrecovered =
                  Option.bind (Json.member "faults" s.resp) (fun f -> field f "unrecovered")
                in
                match expect (Gen.Jacobi { n = Gen.faulted_n; tol = Gen.faulted_tol }) with
                | Ok clean ->
                    unrecovered = Some 0.0
                    && matches s.resp (List.filter (fun (k, _) -> k = "sweeps" || k = "residual") clean)
                | Error _ -> false)
            | _ -> true
          in
          if twin_ok && matches s.resp want then Ok ()
          else Error ("wrong answer: " ^ Json.to_string s.resp))
  | Some _ -> Error ("not ok: " ^ Json.to_string s.resp)
  | None -> Error ("no response to " ^ s.line)
