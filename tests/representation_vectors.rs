//! Representation independence: canonical outputs pinned at commit `87f3e7c`,
//! when every level ran its Montgomery arithmetic on the full 8-limb (RSA:
//! 32-limb) container with `R = 2^(64·L)`.
//!
//! Montgomery form is internal — everything serialised goes through
//! `from_mont` — so re-sizing `R` to the modulus's active limbs must not move
//! a single output byte. The fast-vs-reference cross-checks elsewhere cannot
//! catch a Montgomery-domain slip because both sides share one `Mont`; these
//! literals can. If one fails, the change broke compatibility — do not
//! re-capture it.
//!
//! The two `encrypt_attr[des]` rows were added at `12860a7`, before the
//! hybrid scheme moved onto the shared encrypt-then-MAC `seal`/`open`: they
//! pin the paper's cipher the way the AES-128 rows pin the default.

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
    let sig = kp.private.sign_pkcs1_sha256(b"token body").expect("fits");
    assert_eq!(
        kp.private.decrypt_pkcs1(&ct).expect("own ciphertext"),
        b"token session key"
    );
    kp.public
        .verify_pkcs1_sha256(b"token body", &sig)
        .expect("own signature");
    vec![
        ("rsa512.public", hex(&kp.public.to_bytes())),
        ("rsa512.encrypt_pkcs1", hex(&ct)),
        ("rsa512.sign_pkcs1_sha256", hex(&sig)),
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
        "outputs moved since 87f3e7c:\n{}",
        moved.join("\n")
    );
}

const TOY: [&str; 10] = [
    "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000008c3b716321dccbc0ea4f602d5f540a790d5de67c0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000543a0bcb8612f9300b44ae4fe57049638aec39e9",
    "03000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005a39db22e9b691e7dec910a5b1b36d7fd829295",
    "0300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000c75c082ad250e5ec7e49dc212f0dbc710d89d11",
    "0200000000000000000000000000000000000000000000000000000000000000000000000000000000000000008cc4343011c569375d2fb1bbdc13350a8c43ce7f",
    "030000000000000000000000000000000000000000000000000000000000000000000000000000000000000000d9bdb9907ac425df4e23a141870bae2d0b86ec27",
    "1083495cbd219ea96114f6bcf6f2eff482a64cc830a353dbcf5970a21cebfd4200d6cab50a51b3264924262d9888ef842330fa7c",
    "0200000000000000000000000000000000000000000000000000000000000000000000000000000000000000002e1e1e446673292a78d6ed60ddf409d907a4bfc2",
    "030000000000000000000000000000000000000000000000000000000000000000000000000000000000000000af4a344ec0892020f2c4b8eb6dad1743aa66b04f",
    "03000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080e1c18753a299f11bb3ac0f8d7f5c7c75ec2720",
    "491bd59e69c1ed2c492bde9ac2233985bbe8cb3ab258a1b0cfa33e10ca9bb430e80127b4da2f885e85a34f85743cd1bc81c2005f",
];
const LIGHT: [&str; 10] = [
    "0000000000000000000000000000000000000000000000000000000000000000381ec4ecb0109a71f042c93114d0217438857de97c33e38337f622c4f45c82730000000000000000000000000000000000000000000000000000000000000000927ad36b439bc7f8b48bec0511799076d64e95fea4731adfcabbbe67b96252c8",
    "020000000000000000000000000000000000000000000000000000000000000000237164868ee68dd2febed13bb9ec8c26b221b699af423a948ea98a3e030fb336",
    "020000000000000000000000000000000000000000000000000000000000000000012695ab3a0977cfde5f6068b969a448161b19680a0f112fc7292d0e5b985418",
    "02000000000000000000000000000000000000000000000000000000000000000017ceabecec32e7a639cf5a1094e287035e9d6a0c00315da74e8fce6a7b4de7a7",
    "0300000000000000000000000000000000000000000000000000000000000000007db1ee8a08ba2cc749f0597d01a3477406a56f8ff6a1c1643db016a992d12e92",
    "1b622d1db6561ca1a427c07efc9e443124c7b7c5bb66410ea7f9db3f05f3361f69ed9a0b85a8d1118f2f0f60b514b896a4b72489",
    "030000000000000000000000000000000000000000000000000000000000000000298c54e17c592e1522d6a4fe148e28e1aaacb1f9a7edd86dfbcc625982ccdd9d",
    "02000000000000000000000000000000000000000000000000000000000000000071ac3b7bee932895d36413a72c7f2b0165605b640eea9baabebcde35729cd7ce",
    "0300000000000000000000000000000000000000000000000000000000000000008ea3aee36f116f7fe0f4b03c883df77e739e2d4df6411668514fa42bd907b82d",
    "039530566ef7e9591cc6d64602c4fb08c7586bf21a2c0f8df49454a8c6933e40845d2cdc516645fa11424b0659fa6573ab33c444",
];
const STANDARD: [&str; 10] = [
    "2fa512dde1a6891897938558b0dd8287e7550f563d9a162d9ad8c1b5fb280226e867a6989831f9b77580a8382b4434281c3b31b0ef2dc067bf2f262a3a693cdc4635b86acae9eda61cb3199b7756befcf27185d07eed2b901fdb5853b443f2fb4b01e36f202f51a139438f62ead712d9575671579c462dd5115f8c603ba1f9b4",
    "029ccf51f973d8fa6ace014b31137e6bb8e9ecb5a99c43c82468404df7b43fe08fcae54fa1c110b4da9bdde55e55271ed00c2d4e2c78bde9a6dd716d299aad8830",
    "02252adb474de6bf296110edbb53c5aa9812d4c0fc1ed7c31b576c3f1f0aff83993440a5e0940a894572259772dbf79dcd78bab4438f6d89063a680cbd8b28d2a6",
    "02aad5ae308a3fba4d8d5f2c22c7cf6918170fbee2ba69b7389ba8243a7358bfdaa93bbc3ad79e37d09a41db54010ce895e9bb43d3c0b053bf25586678032a27f0",
    "031328e68dfbd2645bce50bc3558638945de1e06db137333784071e211469100adffa379e55be659880ab4abf010d483a3075ad7c7d8c07dc1c10b958502419320",
    "0da34b8248037a371c775673e97329da733054ec8a1564e8bcc55578e29434d2067f9b477ded9a417b699a9ca9ad440f218ecba2",
    "02d9a5718b0984de883dbb57c40a747cc278335f72716370f94e7b11b281b64b7b2dcb42c41973059ec11cc8fa3a68ce8b5937deb4a048b890afe1c4d237628964",
    "0337dbf52b33542bbca2528db99e1f6d684465dca10181dc5c6df362daffed7dabda85f9fe253ee67d57923bb87aea90ed74c9f39d7d5ee7fa63cb0c2a1f5b494a",
    "03c02409e7999edceedea77fd0f381ab6cd376b6493e8c2a808c7a035e63a8268ad21dfcc88afc5103f4817783c711d43f9b4f7966187993252f0d93d2657ee2b2",
    "b8d532abb7064d971056a6116a87b4b5cef0cfb96b871678d07798abc9aa318089588014dcbc0fe30702f772f22ee01f18b724ff",
];
const RSA512: [&str; 3] = [
    "40000000abff1233c00073d0e8a9f7928f93637c2d05ddd895a22f2ee79215a63242d69062896600350b46d47ad4fa56cbe3722c42885e934b2be5b58cf5ef52ebd6c38b0000000000010001",
    "149bba5a0c065859ad6c2df6dec3ae6873a6ba6da6c2a961836f5aaa4e83e711872471f39c5641864487dc34b1a88c8cbdf7e88ca8c8f14f9528196bd89abb39",
    "a9c4ffb5f027beaa0606b44b4e3cec48ba17806853fb0c0b1cde378d1d31c7813074f424a474c897c1cd3547e8ab28f4b8b6cb80390f54173d8e32adb60aefec",
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
