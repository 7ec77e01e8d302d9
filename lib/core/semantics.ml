open Mediactl_types
open Mediactl_protocol

type end_kind = Open_end | Close_end | Hold_end

let pp_end_kind ppf = function
  | Open_end -> Format.pp_print_string ppf "openslot"
  | Close_end -> Format.pp_print_string ppf "closeslot"
  | Hold_end -> Format.pp_print_string ppf "holdslot"

type spec = Mediactl_obs.Monitor.obligation =
  | Eventually_always_closed
  | Eventually_always_not_flowing
  | Always_eventually_flowing
  | Closed_or_flowing

let spec_of a b =
  match a, b with
  | Close_end, (Close_end | Hold_end) | Hold_end, Close_end -> Eventually_always_closed
  | Close_end, Open_end | Open_end, Close_end -> Eventually_always_not_flowing
  | Open_end, (Open_end | Hold_end) | Hold_end, Open_end -> Always_eventually_flowing
  | Hold_end, Hold_end -> Closed_or_flowing

let spec_to_string = function
  | Eventually_always_closed -> "<>[] bothClosed"
  | Eventually_always_not_flowing -> "<>[] !bothFlowing"
  | Always_eventually_flowing -> "[]<> bothFlowing"
  | Closed_or_flowing -> "(<>[] bothClosed) \\/ ([]<> bothFlowing)"

let both_closed ~left ~right = Slot.is_closed left && Slot.is_closed right

(* The selector most recently received at a slot answers the descriptor
   most recently sent by that slot. *)
let fresh_selector slot =
  match slot.Slot.recv_sel, slot.Slot.sent_desc with
  | Some sel, Some desc -> Selector.responds_to_descriptor sel desc
  | (Some _ | None), _ -> false

let opt_equal eq a b =
  match a, b with
  | Some x, Some y -> eq x y
  | (Some _ | None), _ -> false

let both_flowing ~left ~right =
  Slot.is_flowing left && Slot.is_flowing right
  && opt_equal Medium.equal left.Slot.medium right.Slot.medium
  && opt_equal Descriptor.equal left.Slot.remote_desc right.Slot.sent_desc
  && opt_equal Descriptor.equal right.Slot.remote_desc left.Slot.sent_desc
  && fresh_selector left && fresh_selector right

let enabled_agrees ~left_mute ~right_mute ~left ~right =
  let l_enabled = Slot.rx_enabled left in
  let r_enabled = Slot.rx_enabled right in
  Bool.equal l_enabled
    ((not left_mute.Mute.mute_in) && not right_mute.Mute.mute_out)
  && Bool.equal r_enabled
       ((not right_mute.Mute.mute_in) && not left_mute.Mute.mute_out)
