//! Compress or decompress a real file with the speculative pipeline.
//!
//! Encoding runs the paper's speculative Huffman pipeline on the threaded
//! executor (blocks fed as fast as the file reads) and writes a standalone
//! `TVSH1` container; decoding reads the container back.
//!
//! Usage:
//!   cargo run --release --example compress_file -- compress   <in> <out>
//!   cargo run --release --example compress_file -- decompress <in> <out>
//!
//! With no arguments, a self-test compresses a generated input to a temp
//! file and round-trips it.

use std::sync::Arc;
use tvs_huffman::container;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::HuffmanWorkload;
use tvs_sre::exec::threaded::{try_run, ThreadedConfig};
use tvs_sre::DispatchPolicy;

fn compress(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return container::compress(data).expect("empty container");
    }
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.collect_output = true;
    let workload = HuffmanWorkload::new(cfg.clone(), data.len());
    let blocks: Vec<(usize, Arc<[u8]>)> = data
        .chunks(cfg.block_bytes)
        .enumerate()
        .map(|(i, c)| (i, Arc::<[u8]>::from(c)))
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let tcfg = ThreadedConfig::new(workers, cfg.policy);
    let (workload, metrics) = try_run(workload, &tcfg, blocks).expect("threaded run completes");
    let mut result = workload.result();
    let (stream, bit_len, lengths) = result.output.take().expect("collected");
    eprintln!(
        "encoded {} blocks on {} workers in {} us ({} rollback(s), ratio {:.3})",
        result.blocks.len(),
        workers,
        metrics.makespan,
        metrics.rollbacks,
        result.compression_ratio()
    );
    container::pack(&lengths, &stream, bit_len, data.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            // Self-test.
            let data = tvs_workloads::generate(tvs_workloads::FileKind::Text, 1 << 20, 5);
            let packed = compress(&data);
            let back = container::unpack(&packed).expect("container decodes");
            assert_eq!(back, data);
            println!(
                "self-test ok: {} -> {} bytes ({:.1}% of original), round-trip verified",
                data.len(),
                packed.len(),
                packed.len() as f64 * 100.0 / data.len() as f64
            );
        }
        [mode, input, output] if mode == "compress" => {
            let data = std::fs::read(input).expect("read input");
            let packed = compress(&data);
            std::fs::write(output, &packed).expect("write output");
            println!("{} -> {} bytes -> {}", data.len(), packed.len(), output);
        }
        [mode, input, output] if mode == "decompress" => {
            let packed = std::fs::read(input).expect("read input");
            let data = container::unpack(&packed).expect("valid TVSH1 container");
            std::fs::write(output, &data).expect("write output");
            println!("{} -> {} bytes -> {}", packed.len(), data.len(), output);
        }
        _ => {
            eprintln!("usage: compress_file [compress|decompress] <in> <out>");
            std::process::exit(2);
        }
    }
}
