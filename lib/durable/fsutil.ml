(* Shared durability helper: fsync a directory so renames, unlinks and
   newly created entries inside it survive power loss.  A file system
   that does not support syncing a directory answers EINVAL or
   EOPNOTSUPP; that refusal is benign.  Any other error (a missing
   directory, EIO, ENOSPC) means the entry may not be durable, and
   swallowing it would let the caller report a commit that a crash can
   undo, so it is raised. *)

let fsync_dir dir =
  let benign f =
    try f () with Unix.Unix_error ((Unix.EINVAL | Unix.EOPNOTSUPP), _, _) -> ()
  in
  benign (fun () ->
      let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.fsync fd))

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    fsync_dir parent
  end

(* Tenant names become directory names, so anything that could escape the
   tenant root (path separators, "..", empty) is rejected rather than
   sanitized — a registry key must round-trip exactly. *)
let valid_tenant_name name =
  name <> "" && name <> "." && name <> ".."
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       name

let tenant_dir ~root ~name =
  if not (valid_tenant_name name) then
    invalid_arg (Printf.sprintf "Fsutil.tenant_dir: invalid tenant name %S" name);
  let dir = Filename.concat (Filename.concat root "tenants") name in
  mkdirs dir;
  dir
