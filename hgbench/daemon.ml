(* A standalone hgd child process: spawn it with every flag at its
   default except the socket path and [--tcp 127.0.0.1:0], learn the
   kernel-assigned port from its startup line, sample its CPU time and
   peak RSS from /proc, and stop it. *)

module P = Hp_server.Protocol
module Client = Hp_server.Client

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** read end of the child's stdout *)
  mutable ctl : Client.t option;
}

let live : t list ref = ref []

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.close d.out with Unix.Unix_error _ -> ());
  Option.iter Client.close d.ctl;
  d.ctl <- None

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  reap d

(* A benchmark that dies half way must not leave a daemon behind. *)
let () = at_exit (fun () -> List.iter kill !live)

let read_port fd ~deadline =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    let text = Buffer.contents buf in
    let port =
      List.find_map
        (fun l -> try Scanf.sscanf l "hgd: tcp protocol on port %d" Option.some with _ -> None)
        (String.split_on_char '\n' text)
    in
    match port with
    | Some p -> Ok p
    | None ->
      let wait = deadline -. Clock.now () in
      if wait <= 0.0 then Error "hgd did not report its tcp port in time"
      else (
        match Unix.select [ fd ] [] [] wait with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error ("hgd exited during startup: " ^ String.trim text)
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()))
  in
  go ()

(* [spawn ~hgd ~dir] starts hgd with its socket and log under [dir]
   (both relative to the working directory, which the child shares). *)
let spawn ~hgd ~dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat dir "hgd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [| hgd; "--socket"; Filename.concat dir "hgd.sock"; "--tcp"; "127.0.0.1:0" |]
  in
  let pid = Unix.create_process hgd args Unix.stdin wr log in
  Unix.close wr;
  Unix.close log;
  match read_port rd ~deadline:(Clock.now () +. 30.0) with
  | Ok port ->
    let d = { pid; port; out = rd; ctl = None } in
    live := d :: !live;
    Ok d
  | Error msg ->
    kill { pid; port = 0; out = rd; ctl = None };
    Error msg

(* The control connection: setup, scrapes, checks and SHUTDOWN go over
   it, never over the measured connections. *)
let control d =
  match d.ctl with
  | Some c -> Ok c
  | None -> (
    match Client.connect_addr (Client.Tcp { host = "127.0.0.1"; port = d.port }) with
    | Ok c ->
      Client.set_timeout c 60.0;
      d.ctl <- Some c;
      Ok c
    | Error e -> Error e)

let call d line =
  match control d with
  | Error e -> Error e
  | Ok c -> Client.request_line c line

(* Ask the daemon to stop and wait for the process to exit. *)
let shutdown d =
  let replied =
    match call d "SHUTDOWN" with
    | Ok (P.Ok _) -> true
    | _ -> false
  in
  let deadline = Clock.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Clock.now () > deadline then false
      else (
        Unix.sleepf 0.0005;
        wait ())
    | _, Unix.WEXITED 0 -> replied
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let ok = wait () in
  if ok then reap d else kill d;
  ok

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of the process, in clock ticks of 10 ms (Linux's
   USER_HZ is 100 on every mainstream architecture). *)
let cpu_seconds d =
  let s = read_file (Printf.sprintf "/proc/%d/stat" d.pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mib d =
  let s = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
