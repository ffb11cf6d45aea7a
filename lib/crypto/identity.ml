type certificate = { cname : string; ckey : Rsa.public_key; csig : string }
type ca = { ca_name : string; ca_keys : Rsa.keypair }
type t = { iname : string; keys : Rsa.keypair; cert : certificate }

let cert_payload name key =
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.bytes w name;
  Avm_util.Wire.bytes w (Rsa.public_to_string key);
  Avm_util.Wire.contents w

let create_ca rng ?(bits = 768) ca_name = { ca_name; ca_keys = Rsa.generate rng ~bits }
let ca_public ca = ca.ca_keys.Rsa.public

let issue ca rng ?(bits = 768) iname =
  let keys = Rsa.generate rng ~bits in
  let csig = Rsa.sign ca.ca_keys.Rsa.private_ (cert_payload iname keys.Rsa.public) in
  { iname; keys; cert = { cname = iname; ckey = keys.Rsa.public; csig } }

let issue_like ca donor iname =
  let keys = donor.keys in
  let csig = Rsa.sign ca.ca_keys.Rsa.private_ (cert_payload iname keys.Rsa.public) in
  { iname; keys; cert = { cname = iname; ckey = keys.Rsa.public; csig } }

let name id = id.iname
let public_key id = id.keys.Rsa.public
let certificate id = id.cert
let sign id msg = Rsa.sign id.keys.Rsa.private_ msg
let cert_name c = c.cname
let cert_public_key c = c.ckey

let check_certificate ca_key cert =
  Rsa.verify ca_key ~msg:(cert_payload cert.cname cert.ckey) ~signature:cert.csig

let verify cert ~msg ~signature = Rsa.verify cert.ckey ~msg ~signature

let cert_to_string c =
  let w = Avm_util.Wire.writer () in
  Avm_util.Wire.bytes w c.cname;
  Avm_util.Wire.bytes w (Rsa.public_to_string c.ckey);
  Avm_util.Wire.bytes w c.csig;
  Avm_util.Wire.contents w

let cert_of_string s =
  let r = Avm_util.Wire.reader s in
  let cname = Avm_util.Wire.read_bytes r in
  let ckey = Rsa.public_of_string (Avm_util.Wire.read_bytes r) in
  let csig = Avm_util.Wire.read_bytes r in
  Avm_util.Wire.expect_end r;
  { cname; ckey; csig }
