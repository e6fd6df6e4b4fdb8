//! Representation independence: canonical outputs first pinned at commit
//! `87f3e7c`, when every level ran its Montgomery arithmetic on the full
//! 8-limb (RSA: 32-limb) container with `R = 2^(64·L)`.
//!
//! Montgomery form is internal — everything serialised goes through
//! `from_mont` — so re-sizing `R` to the modulus's active limbs must not move
//! a single output byte. The fast-vs-reference cross-checks elsewhere cannot
//! catch a Montgomery-domain slip because both sides share one `Mont`; these
//! literals can.
//!
//! The tables were re-captured once, on purpose, when three outputs changed
//! by design:
//! - parameter shape: the named sets now have Solinas group orders
//!   `q = 2^a ± 2^b ± 1`, so every pairing, point and key row moved;
//! - `MapToPoint`: one square root per candidate (`x` or `−x`) instead of
//!   try-and-increment, so `hash_to_point` and everything hashed moved;
//! - PKCS#1 padding: drawn in one `fill_bytes`, so `rsa512.encrypt_pkcs1`
//!   moved (the RSA key and signature rows did not).
//!
//! From here the rule holds again: if one fails, the change broke
//! compatibility — do not re-capture it.
//!
//! The two `encrypt_attr[des]` rows were added at `12860a7`, before the
//! hybrid scheme moved onto the shared encrypt-then-MAC `seal`/`open`: they
//! pin the paper's cipher the way the AES-128 rows pin the default. The
//! `rsa512.sign_pkcs1_sha256` row went with PKCS#1 signing, which nothing
//! outside its own tests called.

use mws::crypto::{HmacDrbg, RsaKeyPair};
use mws::ibe::{CipherAlgo, IbeSystem};
use mws::pairing::SecurityLevel;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, hex)` rows for one level, in the order of the pinned tables.
fn ibe_vectors(level: SecurityLevel) -> Vec<(&'static str, String)> {
    let ibe = IbeSystem::named(level);
    let ctx = ibe.pairing();
    let f = ctx.field();
    let mut rng = HmacDrbg::from_u64(0x87f3e7c);
    let a = ctx.random_scalar(&mut rng);
    let g = ctx.generator();
    let ag = ctx.mul(&g, &a);
    let (msk, mpk) = ibe.setup(&mut rng);
    let sk = ibe.extract(&msk, b"utility@example");
    let ct = ibe.encrypt_attr(
        &mut rng,
        &mpk,
        "ELECTRIC-APT9",
        b"nonce-0001",
        CipherAlgo::Aes128,
        b"aad",
        b"meter reading 42 kWh",
    );
    let sig = ibe.ibs_sign(&mut rng, b"utility@example", &sk, b"signed message");
    let des = ibe.encrypt_attr(
        &mut rng,
        &mpk,
        "ELECTRIC-APT9",
        b"nonce-0002",
        CipherAlgo::Des,
        b"aad",
        b"meter reading 43 kWh",
    );
    vec![
        (
            "pairing(g, aG)",
            hex(&ctx.gt_to_bytes(&ctx.pairing(&g, &ag))),
        ),
        (
            "hash_to_point",
            hex(&f.point_to_bytes(&ctx.hash_to_point(b"ELECTRIC-APT9"))),
        ),
        ("mpk", hex(&ibe.mpk_to_bytes(&mpk))),
        ("extract", hex(&ibe.sk_to_bytes(&sk))),
        ("encrypt_attr.u", hex(&f.point_to_bytes(&ct.u))),
        ("encrypt_attr.sealed", hex(&ct.sealed)),
        ("ibs_sign.u", hex(&f.point_to_bytes(&sig.u))),
        ("ibs_sign.v", hex(&f.point_to_bytes(&sig.v))),
        ("encrypt_attr[des].u", hex(&f.point_to_bytes(&des.u))),
        ("encrypt_attr[des].sealed", hex(&des.sealed)),
    ]
}

fn rsa_vectors() -> Vec<(&'static str, String)> {
    let mut rng = HmacDrbg::from_u64(0x87f3e7c);
    let kp = RsaKeyPair::generate(&mut rng, 512).expect("512-bit key");
    let ct = kp
        .public
        .encrypt_pkcs1(&mut rng, b"token session key")
        .expect("fits");
    assert_eq!(
        kp.private.decrypt_pkcs1(&ct).expect("own ciphertext"),
        b"token session key"
    );
    vec![
        ("rsa512.public", hex(&kp.public.to_bytes())),
        ("rsa512.encrypt_pkcs1", hex(&ct)),
    ]
}

fn check(what: &str, got: &[(&'static str, String)], pinned: &[&str]) {
    assert_eq!(got.len(), pinned.len(), "{what}: row count");
    let moved: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, g), p)| g != *p)
        .map(|((name, g), _)| format!("{what} {name}: got {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "pinned outputs moved:\n{}",
        moved.join("\n")
    );
}

const TOY: [&str; 10] = [
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000002b81f9802704e74270e811bfd071f4b234dac89e0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000411657ca90af75b9e0fb3475351059740a14898e",
    "020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000c5b0696eae9728dfadcb920804663d02a10edbb2",
    "0200000000000000000000000000000000000000000000000000000000000000000000000000000000000000004b362f131f9089a413c8d6e7f307e70b3ccf77bc",
    "0300000000000000000000000000000000000000000000000000000000000000000000000000000000000000003d7e0ecc17e3de295727fc8c21afff05a762577e",
    "030000000000000000000000000000000000000000000000000000000000000000000000000000000000000000440031a0f14f78d181d1b4321bc5ee31dbc59692",
    "eed166c3b73413b14e058645bfa39583caa144403966fa308269efa5cba9bc497b059f75a259945b7d05f69abc62d3307ad64d6d",
    "0200000000000000000000000000000000000000000000000000000000000000000000000000000000000000002f171fbb1cf2eada1ba00403488520db37905bb8",
    "020000000000000000000000000000000000000000000000000000000000000000000000000000000000000000d6fc1f5c4909a28815698aa128f4dcbed217caf9",
    "030000000000000000000000000000000000000000000000000000000000000000000000000000000000000000225293c13158ecccfc05eb0668315d81957a9693",
    "c199499ddaed02cd75eef7bbae046e98aa8ad62ddf1b36e79035b4c154167acf1a23642d6d604ce426ba9a5b9744ec7e3599b2b4",
];
const LIGHT: [&str; 10] = [
    "00000000000000000000000000000000000000000000000000000000000000006f9e06d7c518714567df89ec3623145868d80a653ae8904bc34cf8b0541f9c8200000000000000000000000000000000000000000000000000000000000000005b3cc9d03a8e81bf712109678ccaf607cafc97f0619cd7762a23388b7fdb0af8",
    "0200000000000000000000000000000000000000000000000000000000000000003ae6d32dcac1f6ce7e4c10ab6e09455b5d4dd8945c65261565f9972eb25e860f",
    "0200000000000000000000000000000000000000000000000000000000000000003cb8fa14362d984dd689ba650569ce80889e06c2cb9fb3fbe4aa6478d7d15dd7",
    "030000000000000000000000000000000000000000000000000000000000000000ac7d3c2a8b86267386b5ae3ef680af786ca07065edf0d9468423316f0695a42f",
    "020000000000000000000000000000000000000000000000000000000000000000a9d51a4f0e8a4b93b8ada935c23ef30136d5f99762dc2e116a2ba3162801af95",
    "a24af381f6ff90c2f4cb271c8f1091d9e21038fe165826866707727c30276108d1778a3c1c4894539b535587d631f07ccf6dc365",
    "02000000000000000000000000000000000000000000000000000000000000000023db8238679420d39e7d1e75a053f5e624d8c515a35078cfd839ea738b3cde7a",
    "0300000000000000000000000000000000000000000000000000000000000000005d747bf4ff24092997d43f93e8c1ab6a3d352c003fd4fd9f92bfa4e1e256abaa",
    "0200000000000000000000000000000000000000000000000000000000000000002597dd2a8121f32f52aadde0124e6df5012d649f610b72260a531a8437252e57",
    "8c924b2236820dff8da73f377133472a2a433fe9acab69affbb81983e62dbc461d2cc68fb9d3da29fc19505fbbac760443f6f811",
];
const STANDARD: [&str; 10] = [
    "6d0a637260dba871504e3b3819aa2f67818e6e0466a382ef91a357e495f6b2b8d7bbcba4638d770e2a1f79170bf91802ac5d198f8197163d5e8a6329d661618c743f3d2cdfd347ededd94a2082440fee876749d690393ff99b6254715aecaf6db582d962ce91cd2e6cf3529ed2f5aa8302f0b1fed3006556fc6d6bfa0296af5f",
    "0338dba3a13dd86238b7d4748ae2589c0361dc0efa9f51774bdf21f1e4679f16b4306286752654a4f14fd5845352067bd3776f48ec24adace6b5a3735e1dc58bd3",
    "0354e11e653d40ba573661cd8452a72e3a9f32c9bad341985087c867307da02f671c8883278f35cecc9a222520172e17e650d087ed86ec4b95c14529ad98e95ae0",
    "0215756e9b4980f6ec557b0aa59b12071bd9f31fb8426ce43e5605eb6a13539cb02fd19ec4c07bbe15ae76ebfea9d5eaa412fa47efd76573a60bdb2b82087994d8",
    "025696616077672f41bced179d12f52ba7e361f20bb28127888cf222d8b7f71b29196d23466edb05dd06d7b4b6f04d673beb22b738ea8886a7d202af76e4086311",
    "2dddd857d658aa8dbf51f7d7f2ca0e04c1f88ada130aaa4b340d6c25c9f0fa0b86999141aed79bb63d037ca1bfbfb9a131122fc3",
    "020bb3884945348f1b7534b85fc054f35819d3e2aa5ffda3d2efb53dc17cbe698c55a4272e9f52842b9576ebfe7cbbf5589b6266a7521eea9f952784773a3ad89f",
    "0205c9105a3992687ca00fb9398826d315296b53abc64f1d32ca216817f3de14fa963ce2ced670e4e9ead6fe133d5066f2e4c4ecefd67f4a080f1dc19ddd01a739",
    "037884ce48f2f77319c5de43098f74e4c3ab70e763df211119e78fb8af5acc50c4214e6873e71e077781e1d8c89d960b7f97e49c71369413afc1c59d4c31f62831",
    "53907237744e068d5a08ecac05d32e3d9bb10bafd2bca30d3e3bc1481d2eda0ce56332fb36d653fdfa9dff3cb655dd1481651ba3",
];
const RSA512: [&str; 2] = [
    "40000000abff1233c00073d0e8a9f7928f93637c2d05ddd895a22f2ee79215a63242d69062896600350b46d47ad4fa56cbe3722c42885e934b2be5b58cf5ef52ebd6c38b0000000000010001",
    "8bbfbb787e4a87bc08f8cf945919d8959059e782fd3f611bd1d13fb5c3779a73bbbeb78af11d87a08e0ddc93b6661829e810c3ddc092086b8a5ecac9570f03b0",
];

#[test]
fn toy_outputs_match_parent_commit() {
    check("Toy", &ibe_vectors(SecurityLevel::Toy), &TOY);
}

#[test]
fn light_outputs_match_parent_commit() {
    check("Light", &ibe_vectors(SecurityLevel::Light), &LIGHT);
}

#[test]
fn standard_outputs_match_parent_commit() {
    check("Standard", &ibe_vectors(SecurityLevel::Standard), &STANDARD);
}

#[test]
fn rsa512_outputs_match_parent_commit() {
    check("RSA-512", &rsa_vectors(), &RSA512);
}
