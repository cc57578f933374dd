(* The closed-loop load client: one thread multiplexing a fixed set of
   TCP connections with [Unix.select].  Each connection has at most one
   request in flight and sends the next one as soon as the previous
   reply is complete (zero think time) — hgd's own callers wait for
   every reply, so a closed loop is the honest model.

   A request is timed from just before its first byte is written to
   when the last byte of its reply is read.  EOF, a read/write error
   and a per-request timeout all end the request as a failure and close
   that connection for the rest of the run: nothing is retried. *)

type 'a req = {
  text : string;  (** wire bytes, newline-terminated lines *)
  items : int;    (** 0 for a plain request, n for a [BATCH n] *)
  tag : 'a;
}

type outcome = Reply of string | Failed of string

(* Length of the complete reply at the front of [b] (valid up to
   [len]): one OK/ERR reply, or [items] ITEM-tagged ones; [None] while
   more bytes are needed. *)
let complete b len ~items =
  let line_end pos =
    match Bytes.index_from_opt b pos '\n' with
    | Some e when e < len -> Some e
    | _ -> None
    | exception Invalid_argument _ -> None
  in
  let rec skip pos n =
    if n = 0 then Some pos
    else match line_end pos with Some e -> skip (e + 1) (n - 1) | None -> None
  in
  let reply pos =
    match line_end pos with
    | None -> None
    | Some e ->
      if e - pos > 3 && Bytes.sub_string b pos 3 = "OK " then
        match int_of_string_opt (Bytes.sub_string b (pos + 3) (e - pos - 3)) with
        | Some n -> skip (e + 1) n
        | None -> Some (e + 1)
      else Some (e + 1)
  in
  if items = 0 then reply 0
  else
    let rec go pos k =
      if k = 0 then Some pos
      else
        match line_end pos with
        | None -> None
        | Some e -> (
          match reply (e + 1) with Some p -> go p (k - 1) | None -> None)
    in
    go 0 items

type 'a conn = {
  idx : int;
  fd : Unix.file_descr;
  mutable alive : bool;
  mutable cur : 'a req option;
  mutable sent : int;
  mutable t0 : float;
  mutable inb : Bytes.t;
  mutable inlen : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

(* [run ~fds ~next ~on_done ~until ~timeout] drives every connection
   until the wall clock passes [until] (no new request starts after
   it; requests in flight are finished), [next] returns [None] for all
   live connections, or every connection has failed.  [next i] gives
   connection [i]'s next request; [on_done i req ~t0 ~t1 outcome]
   reports each one. *)
let run ~fds ~next ~on_done ~until ~timeout =
  let conns =
    Array.mapi
      (fun idx fd ->
        Unix.set_nonblock fd;
        { idx; fd; alive = true; cur = None; sent = 0; t0 = 0.0;
          inb = Bytes.create 65536; inlen = 0 })
      fds
  in
  let chunk = Bytes.create 65536 in
  let finish c outcome =
    match c.cur with
    | None -> ()
    | Some r ->
      let t1 = Clock.now () in
      c.cur <- None;
      c.inlen <- 0;
      (match outcome with
      | Failed _ ->
        c.alive <- false;
        (try Unix.close c.fd with Unix.Unix_error _ -> ())
      | Reply _ -> ());
      on_done c.idx r ~t0:c.t0 ~t1 outcome
  in
  let flush c =
    match c.cur with
    | None -> ()
    | Some r ->
      let len = String.length r.text in
      (try
         while c.sent < len do
           c.sent <- c.sent + Unix.write_substring c.fd r.text c.sent (len - c.sent)
         done
       with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | Unix.Unix_error (e, _, _) -> finish c (Failed ("write: " ^ Unix.error_message e)))
  in
  let start c =
    if c.alive && c.cur = None && Clock.now () < until then
      match next c.idx with
      | None -> ()
      | Some r ->
        c.cur <- Some r;
        c.sent <- 0;
        c.inlen <- 0;
        c.t0 <- Clock.now ();
        flush c
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> finish c (Failed "eof")
    | n ->
      if c.inlen + n > Bytes.length c.inb then begin
        let b = Bytes.create (2 * (c.inlen + n)) in
        Bytes.blit c.inb 0 b 0 c.inlen;
        c.inb <- b
      end;
      Bytes.blit chunk 0 c.inb c.inlen n;
      c.inlen <- c.inlen + n;
      (match c.cur with
      | Some r -> (
        match complete c.inb c.inlen ~items:r.items with
        | Some stop when stop = c.inlen ->
          finish c (Reply (Bytes.sub_string c.inb 0 stop))
        | Some _ -> finish c (Failed "bytes beyond the reply")
        | None -> ())
      | None -> finish c (Failed "unsolicited bytes"))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> finish c (Failed ("read: " ^ Unix.error_message e))
  in
  let busy () = Array.exists (fun c -> c.cur <> None) conns in
  Array.iter start conns;
  while busy () do
    let rd = ref [] and wr = ref [] and wake = ref infinity in
    Array.iter
      (fun c ->
        match c.cur with
        | None -> ()
        | Some r ->
          rd := c.fd :: !rd;
          if c.sent < String.length r.text then wr := c.fd :: !wr;
          wake := Float.min !wake (c.t0 +. timeout))
      conns;
    let wait = Float.max 0.0 (!wake -. Clock.now ()) in
    let r, w, _ =
      try Unix.select !rd !wr [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if c.cur <> None && List.mem c.fd w then flush c;
        if c.cur <> None && List.mem c.fd r then read c;
        if c.cur <> None && Clock.now () > c.t0 +. timeout then
          finish c (Failed "timeout");
        start c)
      conns
  done;
  Array.iter (fun c -> if c.alive then Unix.clear_nonblock c.fd) conns;
  Array.map (fun c -> c.alive) conns
