//! Multi-device sharding sweep: device count x link bandwidth x codec.
//!
//! Compresses a batch of the six datasets' lead fields through
//! `cuszi_core::shard` at 1/2/4 simulated devices over the three link
//! classes (NVLink / PCIe / WAN-Globus), reporting per-device sim
//! clocks, modelled gather-transfer time, and sim speedup vs the
//! serial single-device baseline. Archives are asserted byte-identical
//! across every cell of the sweep — sharding must never change output.
//!
//! The report goes to the next free `BENCH_<n>.json` (or `--out`) with
//! `"experiment":"multigpu"` and the sentinel fingerprint extended
//! with the device count; `--compare BASELINE.json` runs the noise
//! sentinel (exit 1 on regression, exit 2 on a refused cross-config
//! comparison — including a baseline taken at a different device
//! count).
//!
//! Env: `CUSZI_BENCH_QUICK=1` trims the link/codec axes.

use cuszi_bench::{parse_args, Table};
use cuszi_core::{compress_fields_sharded, Config, NamedField, ShardPlan, ShardReport};
use cuszi_datagen::{generate, DatasetKind};
use cuszi_gpu_sim::MAX_DEVICES;
use cuszi_quant::ErrorBound;
use cuszi_tensor::NdArray;
use cuszi_transfer::LinkClass;

const REL_EB: f64 = 1e-3;
/// Device counts the sweep visits (the acceptance grid).
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
/// Streams per device — fixed (not host-derived) so the sentinel
/// fingerprint is stable across machines.
const STREAMS_PER_DEVICE: usize = 2;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One-line command output, for provenance stamping; "unknown" when
/// the tool is unavailable (e.g. no git in the container).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance_json() -> String {
    format!(
        "{{\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
        json_escape(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        json_escape(&tool_line("rustc", &["-V"])),
    )
}

/// Next unused `BENCH_<n>.json` in `dir`, same numbered series as the
/// other sentinel experiments.
fn next_bench_path(dir: &std::path::Path) -> String {
    let mut max = 0u32;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<u32>().ok())
            {
                max = max.max(n);
            }
        }
    }
    format!("BENCH_{}.json", max + 1)
}

fn cell_json(codec: &str, devices: usize, link: LinkClass, bytes: u64, r: &ShardReport) -> String {
    let per_device: Vec<String> = r
        .per_device
        .iter()
        .map(|d| {
            format!(
                "{{\"device\":{},\"jobs\":{},\"sim_ms\":{:.4},\"transfer_ms\":{:.4},\
                 \"archive_bytes\":{}}}",
                d.device,
                d.jobs,
                d.schedule.sim_elapsed_ns() as f64 / 1e6,
                d.transfer_ns as f64 / 1e6,
                d.archive_bytes
            )
        })
        .collect();
    format!(
        "{{\"codec\":\"{}\",\"devices\":{devices},\"link\":\"{}\",\"archive_bytes\":{bytes},\
         \"sim_ms\":{:.4},\"serial_ms\":{:.4},\"transfer_ms\":{:.4},\"speedup\":{:.4},\
         \"per_device\":[{}]}}",
        json_escape(codec),
        link.label(),
        r.sim_elapsed_ns() as f64 / 1e6,
        r.sim_serial_ns() as f64 / 1e6,
        r.transfer_ns() as f64 / 1e6,
        r.sim_speedup(),
        per_device.join(",")
    )
}

fn main() {
    let (scale, seed) = parse_args();
    let mut out_path: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut max_devices = *DEVICE_COUNTS.last().unwrap_or(&4);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out_path = Some(args.next().expect("--out needs a path"));
        } else if a == "--compare" {
            baseline = Some(args.next().expect("--compare needs a baseline BENCH_<n>.json"));
        } else if a == "--max-devices" {
            max_devices = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| (1..=MAX_DEVICES).contains(&n))
                .expect("--max-devices needs a count in 1..=8");
        }
    }
    let out_path = out_path.unwrap_or_else(|| next_bench_path(std::path::Path::new(".")));
    let quick = std::env::var("CUSZI_BENCH_QUICK").is_ok_and(|v| v != "0");

    let device_counts: Vec<usize> =
        DEVICE_COUNTS.iter().copied().filter(|&d| d <= max_devices).collect();
    let links: Vec<LinkClass> = if quick {
        vec![LinkClass::NvLink, LinkClass::Wan]
    } else {
        LinkClass::all().to_vec()
    };
    let codecs: Vec<(&str, Config)> = {
        let base = Config::new(ErrorBound::Rel(REL_EB));
        if quick {
            vec![("cuSZ-i", base)]
        } else {
            vec![("cuSZ-i", base), ("cuSZ-i/no-bitcomp", base.without_bitcomp())]
        }
    };

    // The batch: every dataset's lead field, one shard each.
    let datasets: Vec<_> = DatasetKind::ALL.iter().map(|&k| generate(k, scale, seed)).collect();
    let owned: Vec<(String, &NdArray<f32>)> = datasets
        .iter()
        .map(|ds| {
            let f = &ds.fields[0];
            (format!("{}/{}", ds.kind.name(), f.name), &f.data)
        })
        .collect();
    let fields: Vec<NamedField<'_>> =
        owned.iter().map(|(n, d)| NamedField { name: n, data: d }).collect();
    let input_bytes: u64 = fields.iter().map(|f| (f.data.len() * 4) as u64).sum();
    println!(
        "multigpu: scale {scale:?}, seed {seed}, {} fields ({:.1} MB), devices {device_counts:?}, \
         links {:?}, {} codec(s) -> {out_path}",
        fields.len(),
        input_bytes as f64 / 1e6,
        links.iter().map(|l| l.label()).collect::<Vec<_>>(),
        codecs.len()
    );

    let mut cells = Vec::new();
    for (codec_name, cfg) in &codecs {
        let mut t = Table::new(vec![
            "devices", "link", "sim ms", "serial ms", "xfer ms", "speedup", "per-device sim ms",
        ]);
        let mut reference: Option<Vec<u8>> = None;
        let mut speedup_at_max: Option<f64> = None;
        for &d in &device_counts {
            for &link in &links {
                let plan = ShardPlan::new(d).streams(STREAMS_PER_DEVICE).link(link);
                let (container, report) = compress_fields_sharded(&fields, *cfg, plan)
                    .unwrap_or_else(|e| panic!("{codec_name} d={d} {}: {e}", link.label()));
                match &reference {
                    None => reference = Some(container.bytes.clone()),
                    Some(r) => assert_eq!(
                        r, &container.bytes,
                        "{codec_name}: archive changed at d={d} link={}",
                        link.label()
                    ),
                }
                if d == *device_counts.last().unwrap_or(&1) && link == LinkClass::NvLink {
                    speedup_at_max = Some(report.sim_speedup());
                }
                let clocks: Vec<String> = report
                    .per_device
                    .iter()
                    .map(|p| {
                        format!("d{}:{:.2}", p.device, p.schedule.sim_elapsed_ns() as f64 / 1e6)
                    })
                    .collect();
                t.row(vec![
                    d.to_string(),
                    link.label().to_string(),
                    format!("{:.2}", report.sim_elapsed_ns() as f64 / 1e6),
                    format!("{:.2}", report.sim_serial_ns() as f64 / 1e6),
                    format!("{:.3}", report.transfer_ns() as f64 / 1e6),
                    format!("{:.2}x", report.sim_speedup()),
                    clocks.join(" "),
                ]);
                cells.push(cell_json(
                    codec_name,
                    d,
                    link,
                    container.bytes.len() as u64,
                    &report,
                ));
            }
        }
        println!("\n== {codec_name}: batch of {} fields ==\n", fields.len());
        t.print();
        println!("archives byte-identical across all {} cells", device_counts.len() * links.len());
        if let Some(s) = speedup_at_max {
            if device_counts.last() == Some(&4) {
                assert!(
                    s > 1.0,
                    "{codec_name}: expected sim speedup > 1 at 4 devices, got {s:.3}"
                );
            }
        }
    }

    let json = format!(
        "{{\"experiment\":\"multigpu\",\"scale\":\"{scale:?}\",\"seed\":{seed},\
         \"samples\":1,\"rel_eb\":{REL_EB},\"streams\":{STREAMS_PER_DEVICE},\
         \"devices\":{},\"provenance\":{},\"datasets\":[],\
         \"multigpu\":{{\"device_counts\":{device_counts:?},\"links\":[{}],\
         \"fields\":{},\"input_bytes\":{input_bytes},\"cells\":[{}]}}}}\n",
        device_counts.last().unwrap_or(&1),
        provenance_json(),
        links.iter().map(|l| format!("\"{}\"", l.label())).collect::<Vec<_>>().join(","),
        fields.len(),
        cells.join(",")
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path}");

    if let Some(base_path) = &baseline {
        let base_src = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let old = cuszi_bench::parse_bench(&base_src).expect("parse baseline");
        let new = cuszi_bench::parse_bench(&json).expect("parse fresh report");
        match cuszi_bench::compare(&old, &new) {
            Ok(rep) => {
                println!("\n{}", rep.render_markdown(base_path, &out_path));
                if rep.has_regression() {
                    eprintln!("bench sentinel: significant regression vs {base_path}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("bench sentinel: {e}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_parses_with_its_device_fingerprint() {
        let json = format!(
            "{{\"experiment\":\"multigpu\",\"scale\":\"Small\",\"seed\":42,\
             \"samples\":1,\"rel_eb\":{REL_EB},\"streams\":{STREAMS_PER_DEVICE},\
             \"devices\":4,\"provenance\":{},\"datasets\":[],\
             \"multigpu\":{{\"device_counts\":[1,2,4],\"links\":[\"nvlink\"],\
             \"fields\":6,\"input_bytes\":100,\"cells\":[]}}}}",
            provenance_json()
        );
        let doc = cuszi_bench::parse_bench(&json).expect("parse");
        assert_eq!(doc.fingerprint.experiment, "multigpu");
        assert_eq!(doc.fingerprint.devices, 4);
        // A baseline at a different device count is refused.
        let other = json.replace("\"devices\":4", "\"devices\":2");
        let doc2 = cuszi_bench::parse_bench(&other).expect("parse");
        let err = cuszi_bench::compare(&doc, &doc2).unwrap_err();
        assert!(err.contains("refusing to compare"), "{err}");
    }
}
