//! Attack campaign: execute the paper's concrete attack descriptions
//! (AD20 of Table VI, AD08 of Table VII, the replay/flooding/jamming
//! attacks of §IV) against the simulated SUTs, with and without their
//! expected measures, and print the verdicts.
//!
//! ```sh
//! cargo run --example attack_campaign
//! ```

use saseval::engine::builtin::full_campaign;
use saseval::engine::campaign::run_campaign_parallel;
use saseval::obs::Obs;

fn main() {
    let cases = full_campaign();
    println!("Executing {} bound attack test cases…\n", cases.len());
    let report = run_campaign_parallel(&cases, 4, &Obs::noop());

    println!(
        "{:<10} {:<38} {:>9} {:>9}  violated goals",
        "attack", "configuration", "success", "detected"
    );
    println!("{}", "-".repeat(88));
    for result in &report.results {
        println!(
            "{:<10} {:<38} {:>9} {:>9}  {}",
            result.attack_id,
            result.label,
            if result.attack_succeeded { "YES" } else { "no" },
            if result.detected { "yes" } else { "-" },
            if result.violated_goals.is_empty() {
                "-".to_owned()
            } else {
                result.violated_goals.join(" ")
            }
        );
    }
    println!("{}", "-".repeat(88));
    println!(
        "{} of {} attacks achieved a safety impact; {} produced detection evidence.",
        report.successes(),
        report.total(),
        report.detections()
    );
    println!(
        "Shape check (paper Tables VI/VII): attacks succeed against the undefended SUT \
         and fail once the expected measures are deployed."
    );
}
