//! Quickstart: the paper's Figure 5 code segment, end to end.
//!
//! Figure 5 computes "the total number of bytes in the fields whose field
//! name is `msgSizeSent`" by reading an interval file record by record
//! through the simple API (§2.4): `readHeader` → `readFrameDir` →
//! `readProfile` → `getInterval` loop → `getItemByName`.
//!
//! We first have to *produce* an interval file, which on the paper's
//! system meant running an MPI program on an IBM SP. Here the cluster
//! simulator stands in: we trace a small ping-pong job, convert the raw
//! per-node traces to interval files, and then run the Figure 5 loop.
//!
//! Run with: `cargo run --example quickstart`

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::pool::default_jobs;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::workloads::micro::ping_pong;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- trace generation (left half of Figure 2) --------------------
    let w = ping_pong(32, 64 << 10); // 32 rounds of 64 KiB each way
    println!("running `{}` on {} nodes …", w.name, w.config.nodes);
    let result = Simulator::new(w.config, &w.job)?.run()?;
    println!(
        "  {} raw records cut, {:.3}s simulated",
        result.stats.events_cut,
        result.stats.end_time.as_secs_f64()
    );

    // ---- convert: event trace files → interval files ------------------
    let profile = Profile::standard();
    let outputs = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions::default(),
        default_jobs(),
    )?;

    // ---- Figure 5: total bytes sent, straight off the record bytes ----
    //
    //   if ((infp = readHeader("input_file", &header)) == NULL) exit(-1);
    //   if (readFrameDir(infp, &framedir) <= 0) exit(-1);
    //   if (readProfile("profile.ute", &table, header.masks) < 0) exit(-1);
    //   while ((length = getInterval(infp, &framedir, buffer, bufSize)) > 0)
    //     if ((nbits = getItemByName(&table, &buffer, length,
    //                                "msgSizeSent", &ilong) > 0)
    //       totalSize += ilong;
    //   printf("total bytes sent = %lld\n", totalSize);
    let mut total_size: i64 = 0;
    for out in &outputs {
        let reader = IntervalFileReader::open(&out.interval_file, &profile)?; // readHeader
        let _first_dir = reader.read_frame_dir(0)?; // readFrameDir
        for body in reader.record_bodies() {
            // getInterval
            let body = body?;
            if let Some(v) = profile.get_item_by_name(reader.mask, body, "msgSizeSent")? {
                // getItemByName
                total_size += v.as_int().unwrap_or(0);
            }
        }
    }
    println!("total bytes sent = {total_size}");

    // Each of the 32 rounds sends 64 KiB in each direction.
    assert_eq!(total_size, 2 * 32 * (64 << 10));
    println!("matches the workload's 2 × 32 × 64 KiB exactly.");
    Ok(())
}
