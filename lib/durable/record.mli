(** WAL record types and their CRC-protected line encoding.

    Each record is one text line: an 8-hex-digit CRC-32 of the payload,
    a tab, then the payload.  Payloads reuse the {!Ivm.Codec} line format
    for modifications, so a WAL is human-inspectable.  Applied-action
    costs are stored as IEEE-754 bit patterns ([%Lx]) so recovery
    restores them bit-identically. *)

type t =
  | Arrival of { time : int; table : int; change : Ivm.Change.t }
      (** A modification entered table [table]'s delta queue at [time]. *)
  | Applied of { time : int; table : int; count : int; cost : float }
      (** The maintainer processed a batch of [count] modifications from
          [table] at [time], at the given metered cost.  Replaying the
          record reproduces the batch; its presence makes the plan's
          action at [(time, table)] a no-op on resume. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of the whole string. *)

val to_line : t -> string
(** Without the trailing newline. *)

val of_line : string -> (t, string) result
(** [Error] on CRC mismatch, malformed framing, or an undecodable
    payload — any of which recovery treats as damage. *)

val to_tagged_line : tenant:string -> t -> string
(** Tenant-tagged framing for the shared cross-tenant group log
    ({!Groupwal}): CRC, tab, tenant name, tab, payload.  The CRC covers
    the tag, so damage can never re-home a record to another tenant. *)

val of_tagged_line : string -> (string * t, string) result
(** Decode a {!to_tagged_line} line into [(tenant, record)].  Rejects
    tags that are not valid tenant names. *)
