(* Used only through [include]. *)
let triple x = 3 * x
