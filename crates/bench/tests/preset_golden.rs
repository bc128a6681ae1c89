//! Byte-for-byte goldens of every figure preset.
//!
//! `preset_golden.txt` holds the FNV-1a 64 digest of each preset's output
//! for `--preset NAME --quick --seeds 1`, once as a table and once with
//! `--format json`. The digests were taken from the one-binary-per-figure
//! layout the preset table replaced, so they also pin that each preset
//! prints what its binary printed. Any change to a preset's argv,
//! epilogue, coverage line or to the numbers under it changes a digest.

use lotus_bench::runner::run_args;

/// 64-bit FNV-1a of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned digest of `name` in `format` (`table` | `json`).
fn pinned(name: &str, format: &str) -> u64 {
    include_str!("preset_golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [n, f, hex] if n == name && f == format => {
                Some(u64::from_str_radix(hex, 16).expect("hex digest"))
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no pinned {format} digest for {name}"))
}

/// The preset's output for `--quick --seeds 1` plus `extra`.
fn output(name: &str, extra: &[&str]) -> Vec<u8> {
    let args: Vec<String> = ["--preset", name, "--quick", "--seeds", "1"]
        .iter()
        .chain(extra)
        .map(|a| (*a).to_string())
        .collect();
    run_args(&args)
        .unwrap_or_else(|e| panic!("preset {name} failed: {e}"))
        .into_bytes()
}

fn check(name: &str) {
    for (format, extra) in [("table", &[][..]), ("json", &["--format", "json"][..])] {
        assert_eq!(
            format!("{:016x}", fnv64(&output(name, extra))),
            format!("{:016x}", pinned(name, format)),
            "{name} {format} output changed"
        );
    }
}

macro_rules! goldens {
    ($($name:ident)*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

goldens! {
    table1 fig1 fig2 fig3
    ext_altruism ext_cut ext_rare ext_scrip_supply ext_scrip_altruists
    ext_bittorrent ext_rarest_first ext_reporting ext_rate_limit ext_coding
    ext_rotation ext_scrip_gossip ext_sensor ext_reputation ext_oscillating
    ext_churn ext_adaptive ext_flashcrowd ext_faults ext_digest
}
