//! `intrusion-injector` — command-line front end for the
//! intrusion-injection assessment tooling.
//!
//! ```text
//! intrusion-injector campaign [--extensions] [--json] [--jobs 4] [--trace-out t.jsonl]
//! intrusion-injector campaign --checkpoint c.journal [--chaos-seed 7]
//! intrusion-injector campaign --progress --timeline-out tl.jsonl
//! intrusion-injector campaign resume c.journal
//! intrusion-injector campaign replay 17 --chaos-seed 7 --trace-out slot17.jsonl
//! intrusion-injector run --use-case XSA-182-test --version 4.13 --mode injection
//! intrusion-injector randomized --region idt --trials 24 --seed 7 --version 4.8
//! intrusion-injector benchmark [--jobs 4]
//! intrusion-injector trace summary t.jsonl --top 10
//! intrusion-injector trace validate t.jsonl
//! intrusion-injector report diff before.json after.json
//! intrusion-injector taxonomy
//! intrusion-injector models
//! intrusion-injector help
//! ```

mod args;

use args::{ArgError, Parsed, Spec};
use hvsim_obs::{
    parse_jsonl, parse_line, to_jsonl, MetricsRegistry, MetricsTimeline, ParseError,
    TraceSummary, Tracer,
};
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    default_jobs, quiet_contained_panics, read_header, render_table2, ArbitraryAccessInjector,
    Campaign, CampaignError, Mode, RandomizedCampaign, SecurityBenchmark, Shard, StreamReport,
    TargetRegion, UseCase,
};
use hvsim::XenVersion;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use xsa_exploits::{extension_use_cases, paper_use_cases};

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Every stdout write of the CLI, through a locked handle. A closed
/// stdout (`... | head`) ends the process with exit 0 and nothing on
/// stderr: the reader took all it wanted. Unit tests print instead,
/// because the test harness captures only `print!`.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if cfg!(test) {
        print!("{args}");
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: could not write to stdout: {e}");
        std::process::exit(2);
    }
}

const HELP: &str = "\
intrusion-injector — intrusion injection for virtualized systems (DSN 2023)

USAGE:
    intrusion-injector <command> [options]

COMMANDS:
    campaign     run the full assessment campaign and print Table II, Fig. 4,
                 Table III and the per-key summary; one resident cell per worker
                   [--extensions]  include the extension use cases
                   [--json]        emit the streamed report as JSON
                   [--jobs <n>]    worker threads (default: hardware threads)
                   [--trace-out <file>]    write the structured trace as JSONL
                   [--metrics-out <file>]  write the metrics snapshot as JSON
                   [--shard <i/n>] run only slots i, i+n, i+2n, ... of the grid;
                                   merging the n shard reports ('report merge')
                                   reproduces the unsharded report byte-for-byte
                   [--trials <n>]  trials per (use case, version, mode) cell
                   [--report-out <file>]   write the normalized mergeable
                                   report as JSON
                   [--checkpoint <file>]   journal durable progress (a synced
                                   fold record every 1024 slots per worker) so
                                   a killed run can 'campaign resume <file>';
                                   resumed runs produce the same normalized
                                   report byte-for-byte
                   [--chaos-seed <n>]  deterministic fault injection: seeded
                                   worker panics, boot failures and torn
                                   journal writes (same seed => same faults
                                   at any --jobs count)
                   [--progress]    live progress line on stderr (done/total,
                                   cells/s, ETA, degraded count)
                   [--timeline-out <file>]  write the metrics timeline, sampled
                                   every 200 ms (counters + gauges per tick),
                                   as JSONL; with --progress or --timeline-out a
                                   wedged worker is reported as 'worker <w>
                                   stalled on slot <s>'
                 resume <file>   resume a checkpointed campaign from its
                                   journal; the journal header supplies the
                                   grid (extensions, trials and shard) and
                                   the chaos seed, so --extensions, --trials
                                   and --shard are refused, and so is a
                                   --chaos-seed other than the journal's. It
                                   keeps journaling to <file>, so
                                   --checkpoint is refused too
                 replay <slot>   re-run one grid slot with tracing on: writes
                                   its trace (boot stages, audited hypercalls,
                                   chaos faults, verdict) as JSONL to
                                   --trace-out or stdout, prints the verdict on
                                   stderr and exits 0/1/2 from that cell. Pass
                                   the grid flags of the original run
                                   (--extensions, --trials, --chaos-seed);
                                   degraded cells are listed with their
                                   slot. It runs one cell on the calling
                                   thread and writes no report, so
                                   --checkpoint, --report-out, --json,
                                   --metrics-out, --timeline-out, --progress,
                                   --jobs and --shard are refused
    report       operate on streamed campaign reports
                   merge <out> <in>...   merge shard reports written by
                                         'campaign --report-out'
                   diff <a> <b>          compare two JSON reports or metrics
                                         snapshots leaf-by-leaf; exit 0 when
                                         identical, 1 when they differ
    run          run one use case once
                   --use-case <name>      e.g. XSA-212-crash (see 'models')
                   [--version <v>]        4.6 | 4.8 | 4.13   (default 4.6)
                   [--mode <m>]           exploit | injection (default injection)
    randomized   fuzz-style randomized injection sweep
                   [--region <r>]   idt | l3 | pagetables | frames (default idt)
                   [--trials <n>]   default 16
                   [--seed <n>]     default 7
                   [--version <v>]  default 4.8
                   [--jobs <n>]     worker threads (default: hardware threads)
    benchmark    score and rank versions by erroneous-state handling
                   [--jobs <n>]    worker threads (default: hardware threads)
                   [--trace-out <file>]    write the structured trace as JSONL
                   [--metrics-out <file>]  write the metrics snapshot as JSON
    trace        inspect a JSONL trace written by --trace-out
                   summary <file>   per-phase self-time profile + slowest cells
                                    [--top <n>]  slowest cells to list (default 10)
                   validate <file>  check every line against the event schema;
                                    reports every malformed line with its line
                                    number and exits nonzero
    taxonomy     print the abusive-functionality study (Table I)
    models       list the available use cases and their intrusion models
    help         this text

EXIT CODES:
    0  clean run, no security violations observed
    1  the assessment observed at least one security violation (that is
       the expected result of the paper's campaigns)
    2  harness degradation (a cell crashed or failed to boot)
       or a CLI error; an output file (--report-out, --trace-out,
       --metrics-out, --timeline-out) is created before the first cell
       runs, so one that cannot be created fails before the run
";

/// What the process should report via its exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CliOutcome {
    /// Exit 0: nothing violated, nothing degraded.
    Clean,
    /// Exit 1: the assessment observed security violations.
    Violations,
    /// Exit 2: the harness degraded (crash / boot failure).
    Degraded,
}

impl CliOutcome {
    fn exit_code(self) -> ExitCode {
        match self {
            CliOutcome::Clean => ExitCode::SUCCESS,
            CliOutcome::Violations => ExitCode::from(1),
            CliOutcome::Degraded => ExitCode::from(2),
        }
    }

    /// Degradation dominates violations; violations dominate clean.
    fn new(degraded: bool, violated: bool) -> Self {
        if degraded {
            CliOutcome::Degraded
        } else if violated {
            CliOutcome::Violations
        } else {
            CliOutcome::Clean
        }
    }
}

fn parse_version(p: &Parsed) -> Result<XenVersion, ArgError> {
    parse_version_or(p, "4.6")
}

fn parse_version_or(p: &Parsed, default: &'static str) -> Result<XenVersion, ArgError> {
    match p.get_or("version", default) {
        "4.6" => Ok(XenVersion::V4_6),
        "4.8" => Ok(XenVersion::V4_8),
        "4.13" => Ok(XenVersion::V4_13),
        other => Err(ArgError::BadValue {
            option: "version",
            value: other.to_owned(),
            expected: "4.6, 4.8, 4.13",
        }),
    }
}

/// Parses `--jobs`; `0` (the default) means one worker per hardware
/// thread.
fn parse_jobs(p: &Parsed) -> Result<usize, String> {
    match p.get_or("jobs", "0").parse() {
        Ok(0) => Ok(default_jobs()),
        Ok(jobs) => Ok(jobs),
        Err(_) => Err("--jobs must be a number".to_owned()),
    }
}

/// Applies the shared fault-containment and grid options to a campaign.
fn configure_campaign(mut campaign: Campaign, p: &Parsed) -> Result<Campaign, String> {
    campaign = campaign.jobs(parse_jobs(p)?);
    let trials: u64 =
        p.get_or("trials", "1").parse().map_err(|_| "--trials must be a number".to_owned())?;
    campaign = campaign.trials(trials);
    if let Some(raw) = p.options.get("shard") {
        campaign = campaign.shard(Shard::parse(raw).map_err(|e| format!("--shard: {e}"))?);
    }
    if p.has_flag("progress") {
        campaign = campaign.progress(true);
    }
    Ok(campaign)
}

/// The observability hooks a campaign command may attach via
/// `--trace-out` / `--metrics-out` / `--timeline-out`. The tracer stays
/// disabled (a no-op) unless a trace file was requested; the timeline is
/// only sampled when a telemetry output asked for it.
struct ObsHooks {
    tracer: Tracer,
    registry: MetricsRegistry,
    timeline: Option<MetricsTimeline>,
}

fn attach_obs(campaign: Campaign, p: &Parsed) -> (Campaign, ObsHooks) {
    let tracer =
        if p.options.contains_key("trace-out") { Tracer::enabled() } else { Tracer::disabled() };
    let registry = MetricsRegistry::new();
    let mut campaign = campaign.tracer(tracer.clone()).metrics(registry.clone());
    let timeline = p.options.contains_key("timeline-out").then(MetricsTimeline::new);
    if let Some(timeline) = &timeline {
        campaign = campaign.timeline(timeline.clone());
    }
    (campaign, ObsHooks { tracer, registry, timeline })
}

/// The output files a command was asked for, keyed by option. Each is
/// created before the run, so an unwritable path exits 2 before any
/// cell runs; the end of the run writes it.
struct Outputs(BTreeMap<&'static str, (String, std::fs::File)>);

impl Outputs {
    /// Creates the file of every one of `options` given on the command
    /// line.
    fn create(p: &Parsed, options: &[&'static str]) -> Result<Self, String> {
        let mut files = BTreeMap::new();
        for &option in options {
            if let Some(path) = p.options.get(option) {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("--{option}: could not create {path}: {e}"))?;
                files.insert(option, (path.clone(), file));
            }
        }
        Ok(Self(files))
    }

    /// Writes `text()` to the file of `option`, when it was requested,
    /// and returns its path.
    fn write(
        &mut self,
        option: &str,
        text: impl FnOnce() -> Result<String, String>,
    ) -> Result<Option<&str>, String> {
        let Some((path, file)) = self.0.get_mut(option) else { return Ok(None) };
        file.write_all(text()?.as_bytes()).map_err(|e| format!("could not write {path}: {e}"))?;
        Ok(Some(path))
    }
}

/// One JSON file (a report or a metrics snapshot), ending with a
/// newline so line tools see a terminated last line.
fn json_file(json: Result<String, serde_json::Error>) -> Result<String, String> {
    json.map(|json| json + "\n").map_err(|e| e.to_string())
}

/// Writes the requested trace / metrics / timeline files after a
/// campaign ran.
fn write_obs_outputs(outputs: &mut Outputs, hooks: &ObsHooks) -> Result<(), String> {
    let events = hooks.tracer.drain();
    if let Some(path) = outputs.write("trace-out", || Ok(to_jsonl(&events)))? {
        eprintln!("wrote {} trace events to {path}", events.len());
    }
    let snapshot = || json_file(serde_json::to_string_pretty(&hooks.registry.snapshot()));
    if let Some(path) = outputs.write("metrics-out", snapshot)? {
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(timeline) = &hooks.timeline {
        if let Some(path) = outputs.write("timeline-out", || Ok(timeline.to_jsonl()))? {
            eprintln!("wrote {} timeline samples to {path}", timeline.len());
        }
    }
    Ok(())
}

fn all_use_cases() -> Vec<Box<dyn UseCase>> {
    paper_use_cases().into_iter().chain(extension_use_cases()).collect()
}

fn find_use_case(name: &str) -> Option<Box<dyn UseCase>> {
    all_use_cases().into_iter().find(|uc| uc.name().eq_ignore_ascii_case(name))
}

fn cmd_campaign(p: &Parsed) -> Result<CliOutcome, String> {
    // `campaign resume <journal>` and `campaign replay <slot>` are the
    // positional forms.
    let argument = |form: &str, what: &str| -> Result<String, String> {
        let arg = p.positionals.get(1).ok_or_else(|| format!("campaign {form} needs {what}"))?;
        if let Some(extra) = p.positionals.get(2) {
            return Err(format!("unexpected argument '{extra}'"));
        }
        Ok(arg.clone())
    };
    // Each form refuses the options it would silently ignore: `resume`
    // takes its grid from the journal header and keeps journaling to the
    // journal it resumes, and `replay` runs one cell on this thread and
    // writes no report.
    let (resume_path, replay_slot, refused): (_, _, &[&str]) =
        match p.positionals.first().map(String::as_str) {
            None => (None, None, &[]),
            Some("resume") => {
                let refused = &["checkpoint", "trials", "shard", "extensions"];
                (Some(argument("resume", "a journal path")?), None, refused)
            }
            Some("replay") => {
                let raw = argument("replay", "a slot number")?;
                let slot: u64 = raw
                    .parse()
                    .map_err(|_| format!("campaign replay: '{raw}' is not a slot number"))?;
                let refused = &[
                    "checkpoint", "report-out", "json", "metrics-out", "timeline-out", "progress",
                    "jobs", "shard",
                ];
                (None, Some(slot), refused)
            }
            Some(other) => return Err(format!("unexpected argument '{other}'")),
        };
    if let Some(option) = refused.iter().find(|&&o| p.options.contains_key(o) || p.has_flag(o)) {
        return Err(format!("campaign {} does not take --{option}", p.positionals[0]));
    }
    let resume_header = resume_path
        .as_deref()
        .map(|path| read_header(Path::new(path)).map_err(|e| e.to_string()))
        .transpose()?;
    let seed = p
        .options
        .get("chaos-seed")
        .map(|raw| raw.parse::<u64>().map_err(|_| "--chaos-seed must be a number".to_owned()))
        .transpose()?;
    // On resume the journal header is the only source of the run's
    // settings: the chaos seed comes from it, and a --chaos-seed other
    // than the journal's is refused rather than obeyed.
    let chaos = match &resume_header {
        None => seed,
        Some(header) if seed.is_none_or(|seed| header.chaos == Some(seed)) => header.chaos,
        Some(header) => {
            let journal = header.chaos.map_or_else(|| "none".to_owned(), |s| s.to_string());
            return Err(format!(
                "campaign resume: --chaos-seed differs from the journal's chaos seed ({journal})"
            ));
        }
    };
    let mut campaign = configure_campaign(Campaign::new(), p)?;
    if let Some(seed) = chaos {
        campaign = campaign.chaos(seed);
    }
    // The grid shape comes from the header too: extensions, trials, and
    // shard (resume still verifies the whole header and refuses a
    // journal from a different campaign).
    let want_extensions = p.has_flag("extensions")
        || resume_header
            .as_ref()
            .is_some_and(|h| h.grid.use_cases.len() > paper_use_cases().len());
    for uc in paper_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    if want_extensions {
        for uc in extension_use_cases() {
            campaign = campaign.with_use_case(uc);
        }
    }
    if let Some(header) = &resume_header {
        campaign = campaign.trials(header.grid.trials);
        if let Some(shard) = header.shard {
            campaign = campaign.shard(shard);
        }
        // Refused here, not by `Campaign::resume`, so that no output
        // file is created for a run that cannot start.
        if campaign.grid() != &header.grid {
            let grid = &header.grid;
            return Err(format!("campaign resume: the journal's grid ({grid}) is not one it runs"));
        }
    }
    let mut outputs =
        Outputs::create(p, &["trace-out", "metrics-out", "timeline-out", "report-out"])?;
    if let Some(slot) = replay_slot {
        return cmd_campaign_replay(campaign, slot, &mut outputs);
    }
    // A contained panic is listed as a degraded slot, whose replay shows
    // the panic itself.
    quiet_contained_panics();
    let flags = replay_flags(want_extensions, campaign.grid().trials, chaos);
    let (campaign, hooks) = attach_obs(campaign, p);
    let outcome = if let Some(path) = &resume_path {
        eprintln!("resuming the campaign from {path} ...");
        campaign.resume(Path::new(path)).map_err(|e| e.to_string())?
    } else if let Some(path) = p.options.get("checkpoint") {
        eprintln!("running the campaign (journal: {path}) ...");
        campaign.run_streaming_checkpointed(Path::new(path)).map_err(|e| e.to_string())?
    } else {
        eprintln!("running the campaign ...");
        campaign.run_streaming()
    };
    write_obs_outputs(&mut outputs, &hooks)?;
    let report = &outcome.report;
    if let Some(path) = outputs.write("report-out", || json_file(report.normalized().to_json()))? {
        eprintln!("wrote normalized stream report to {path}");
    }
    let exit = CliOutcome::new(report.is_degraded(), report.has_violations());
    if p.has_flag("json") {
        outln!("{}", report.to_json().map_err(|e| e.to_string())?);
        return Ok(exit);
    }
    outln!("{}", render_table2(campaign.use_cases()));
    outln!("{}", report.render_fig4());
    outln!("{}", report.render_table3());
    outln!("{}", report.render_keys());
    let s = outcome.stats;
    outln!(
        "pipeline: {} workers, {:.0} cells/sec; merge {} us",
        s.workers, s.cells_per_sec, s.merge_us,
    );
    if report.degraded > 0 {
        eprintln!(
            "warning: {} cell(s) degraded (crash / boot failure):",
            report.degraded
        );
        for (&slot, cell) in &report.degraded_slots {
            let cell_id = format!("{} / Xen {} / {}", cell.use_case, cell.version, cell.mode);
            eprintln!("{}", degraded_line(slot, &cell_id, cell.error.as_ref(), &flags));
        }
    }
    Ok(exit)
}

/// The grid flags `campaign replay` needs to rebuild this run's grid
/// and chaos seed.
fn replay_flags(extensions: bool, trials: u64, chaos: Option<u64>) -> String {
    let mut flags = String::new();
    if extensions {
        flags.push_str(" --extensions");
    }
    if trials > 1 {
        flags.push_str(&format!(" --trials {trials}"));
    }
    if let Some(seed) = chaos {
        flags.push_str(&format!(" --chaos-seed {seed}"));
    }
    flags
}

/// One degraded cell: its slot, identity, error, and the command that
/// replays it.
fn degraded_line(slot: u64, cell_id: &str, error: Option<&CampaignError>, flags: &str) -> String {
    let error = error.map_or_else(|| "unknown".to_owned(), ToString::to_string);
    let command = format!("intrusion-injector campaign replay {slot}{flags}");
    format!("  ! slot {slot}: {cell_id}: {error} -- replay: {command}")
}

/// `campaign replay <slot>`: re-runs one slot of the grid with the
/// tracer on, writes its trace as canonical JSONL to `--trace-out` (or
/// stdout), prints the verdict on stderr, and exits from that cell.
fn cmd_campaign_replay(
    campaign: Campaign,
    slot: u64,
    outputs: &mut Outputs,
) -> Result<CliOutcome, String> {
    let tracer = Tracer::enabled();
    let campaign = campaign.tracer(tracer.clone());
    let cells = campaign.grid().len();
    let cell = campaign
        .replay(slot)
        .ok_or_else(|| format!("slot {slot} is past the end of the grid ({cells} cells)"))?;
    let trace = to_jsonl(&tracer.drain());
    if outputs.write("trace-out", || Ok(trace.clone()))?.is_none() {
        write_stdout(format_args!("{trace}"));
    }
    let verdict = if cell.degraded() {
        let error = cell.error.as_ref().map_or_else(|| "unknown".to_owned(), ToString::to_string);
        format!("degraded: {error}")
    } else if cell.violated() {
        format!("{} security violation(s)", cell.violations.len())
    } else if cell.handled {
        "erroneous state handled".to_owned()
    } else {
        "no security violation".to_owned()
    };
    eprintln!("slot {slot}: {} / Xen {} / {}: {verdict}", cell.use_case, cell.version, cell.mode);
    Ok(CliOutcome::new(cell.degraded(), cell.violated()))
}

fn cmd_run(p: &Parsed) -> Result<CliOutcome, String> {
    let name = p.require("use-case").map_err(|e| e.to_string())?;
    let uc = find_use_case(name).ok_or_else(|| {
        format!("unknown use case '{name}' (see 'intrusion-injector models')")
    })?;
    let version = parse_version(p).map_err(|e| e.to_string())?;
    let mode = match p.get_or("mode", "injection") {
        "exploit" => Mode::Exploit,
        "injection" => Mode::Injection,
        other => return Err(format!("--mode got '{other}', expected exploit|injection")),
    };
    let mut world = standard_world(version, mode == Mode::Injection)
        .map_err(|e| format!("world failed to boot: {e}"))?;
    let attacker = world
        .domain_by_name("guest03")
        .ok_or_else(|| "standard world has no attacker guest".to_owned())?;
    outln!("{} / Xen {version} / {mode}", uc.name());
    outln!("intrusion model: {}", uc.intrusion_model());
    let outcome = match mode {
        Mode::Exploit => uc.run_exploit(&mut world, attacker),
        Mode::Injection => uc.run_injection(&mut world, attacker, &ArbitraryAccessInjector),
    };
    for note in &outcome.notes {
        outln!("  | {note}");
    }
    outln!("erroneous state: {}", outcome.erroneous_state);
    if let Some(audit) = &outcome.state_audit {
        outln!("audit evidence:  {}", audit.evidence);
    }
    if let Some(err) = &outcome.error {
        outln!("failure:         {err}");
    }
    let observation = uc.monitor(&world, attacker).observe(&world);
    if observation.is_clean() {
        outln!("security violations: none (state handled)");
        Ok(CliOutcome::Clean)
    } else {
        outln!("security violations:");
        for v in &observation.violations {
            outln!("  ! {v}");
        }
        Ok(CliOutcome::Violations)
    }
}

fn cmd_randomized(p: &Parsed) -> Result<CliOutcome, String> {
    let region = match p.get_or("region", "idt") {
        "idt" => TargetRegion::IdtGates { cpu: 0 },
        "l3" => TargetRegion::SharedL3,
        "pagetables" => TargetRegion::DomainPageTables,
        "frames" => TargetRegion::DomainFrames,
        other => return Err(format!("--region got '{other}', expected idt|l3|pagetables|frames")),
    };
    let trials: usize = p.get_or("trials", "16").parse().map_err(|_| "--trials must be a number")?;
    let seed: u64 = p.get_or("seed", "7").parse().map_err(|_| "--seed must be a number")?;
    // The randomized sweep targets a non-vulnerable version by default
    // (the HELP text's documented 4.8), unlike `run`'s 4.6.
    let version = parse_version_or(p, "4.8").map_err(|e| e.to_string())?;
    let jobs = parse_jobs(p)?;
    let campaign = RandomizedCampaign::new(region, trials, seed);
    quiet_contained_panics();
    eprintln!("running {trials} trials against {} on Xen {version} ...", region.label());
    let (summary, outcomes) = campaign
        .run_with_jobs(
            || {
                let w = standard_world(version, true)?;
                let a = w
                    .domain_by_name("guest03")
                    .ok_or_else(|| guestos::BootError::new("find attacker", "no guest03"))?;
                Ok((w, a))
            },
            jobs,
        )
        .map_err(|e| e.to_string())?;
    outln!("{summary}");
    for (i, o) in outcomes.iter().enumerate() {
        match &o.error {
            Some(error) => outln!("  trial {i:>3}: degraded: {error}"),
            None => outln!(
                "  trial {i:>3}: {} injected={} crashed={} violations={}",
                o.spec, o.injected, o.crashed, o.violations
            ),
        }
    }
    Ok(CliOutcome::new(summary.degraded > 0, summary.crashes > 0 || summary.violated > 0))
}

fn cmd_benchmark(p: &Parsed) -> Result<CliOutcome, String> {
    let mut campaign = configure_campaign(Campaign::new(), p)?;
    for uc in all_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    let mut outputs = Outputs::create(p, &["trace-out", "metrics-out"])?;
    let (campaign, hooks) = attach_obs(campaign, p);
    quiet_contained_panics();
    eprintln!("running the extended campaign ...");
    let report = campaign.run_with_jobs(parse_jobs(p)?);
    write_obs_outputs(&mut outputs, &hooks)?;
    let benchmark = SecurityBenchmark::from_report(&report);
    outln!("{}", benchmark.render());
    for (i, (version, score)) in benchmark.ranking().iter().enumerate() {
        outln!("  {}. Xen {version}  score {score:.2}", i + 1);
    }
    Ok(CliOutcome::new(report.is_degraded(), report.has_violations()))
}

fn cmd_trace(p: &Parsed) -> Result<CliOutcome, String> {
    let action = p
        .positionals
        .first()
        .ok_or("trace needs an action: trace summary <file> | trace validate <file>")?;
    let path = p
        .positionals
        .get(1)
        .ok_or_else(|| format!("trace {action} needs a file path"))?;
    if let Some(extra) = p.positionals.get(2) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    match action.as_str() {
        "validate" => {
            // Validate every line, not just up to the first error: a
            // corrupted trace usually has several bad lines and fixing
            // them one resubmission at a time is miserable.
            let mut events = 0usize;
            let mut errors: Vec<ParseError> = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_line(line) {
                    Ok(_) => events += 1,
                    Err(e) => errors.push(ParseError { line: i + 1, ..e }),
                }
            }
            if errors.is_empty() {
                outln!("{path}: {events} events, every line schema-valid");
                return Ok(CliOutcome::Clean);
            }
            for e in &errors {
                eprintln!("{path}:{}: {}", e.line, e.message);
            }
            Err(format!(
                "{path}: {} invalid line(s) out of {}",
                errors.len(),
                errors.len() + events
            ))
        }
        "summary" => {
            let top: usize =
                p.get_or("top", "10").parse().map_err(|_| "--top must be a number")?;
            let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            write_stdout(format_args!("{}", TraceSummary::compute(&events).render(top)));
            Ok(CliOutcome::Clean)
        }
        other => Err(format!("unknown trace action '{other}' (expected summary|validate)")),
    }
}

/// `report merge <out> <in>...` — merge streamed (shard) reports into
/// one. Merging normalized shard reports reproduces the normalized
/// unsharded report byte-for-byte; merging raw reports sums the raw
/// wall-clock aggregates instead.
fn cmd_report(p: &Parsed) -> Result<CliOutcome, String> {
    let action = p
        .positionals
        .first()
        .ok_or("report needs an action: report merge <out> <in>... | report diff <a> <b>")?;
    match action.as_str() {
        "merge" => cmd_report_merge(p),
        "diff" => cmd_report_diff(p),
        other => Err(format!("unknown report action '{other}' (expected merge|diff)")),
    }
}

fn cmd_report_merge(p: &Parsed) -> Result<CliOutcome, String> {
    let out = p.positionals.get(1).ok_or("report merge needs an output path")?;
    let inputs = &p.positionals[2..];
    if inputs.is_empty() {
        return Err("report merge needs at least one input report".to_owned());
    }
    let mut merged = StreamReport::default();
    for path in inputs {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let report = StreamReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        // Refuse loudly instead of silently double-counting: reports
        // from different grids or overlapping shards never merge.
        merged = merged.try_merge(&report).map_err(|e| format!("{path}: {e}"))?;
    }
    let json = merged.to_json().map_err(|e| e.to_string())?;
    // A merge never replaces a file: a forgotten `<out>` would otherwise
    // overwrite the first shard with a one-shard "merge".
    let mut file = std::fs::File::create_new(out)
        .map_err(|e| format!("could not create {out} (report merge overwrites nothing): {e}"))?;
    writeln!(file, "{json}").map_err(|e| format!("could not write {out}: {e}"))?;
    eprintln!("merged {} report(s) into {out} ({} cells)", inputs.len(), merged.cells);
    Ok(CliOutcome::Clean)
}

/// Flattens a JSON document into dotted-path leaves (`a.b[2].c`), the
/// unit `report diff` compares. A list whose elements are all maps with
/// a unique string `name` is keyed by name (`counters[campaign.cells].value`),
/// so two metrics snapshots that differ by one counter differ in that
/// counter's leaves alone; any other list is keyed by index.
fn flatten_json(prefix: &str, v: &Value, out: &mut BTreeMap<String, Value>) {
    match v {
        Value::Map(entries) => {
            for (key, value) in entries {
                let path =
                    if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                flatten_json(&path, value, out);
            }
        }
        Value::Seq(items) => {
            let names: Option<Vec<&str>> = items.iter().map(element_name).collect();
            let unique = names.as_ref().is_some_and(|names| {
                names.iter().collect::<BTreeSet<_>>().len() == names.len()
            });
            for (i, value) in items.iter().enumerate() {
                let key = match &names {
                    Some(names) if unique => names[i].to_owned(),
                    _ => i.to_string(),
                };
                flatten_json(&format!("{prefix}[{key}]"), value, out);
            }
        }
        leaf => {
            out.insert(prefix.to_owned(), leaf.clone());
        }
    }
}

/// The string `name` of a map, if it has one.
fn element_name(v: &Value) -> Option<&str> {
    v.as_map()?.iter().find_map(|(key, value)| match value {
        Value::Str(name) if key == "name" => Some(name.as_str()),
        _ => None,
    })
}

fn render_leaf(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(_) | Value::Map(_) => "<composite>".to_owned(),
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `report diff <a> <b>` — leaf-by-leaf comparison of two JSON
/// documents (campaign reports, metrics snapshots, benchmark files).
/// Numeric leaves get a signed delta. Exits 0 when identical, 1 when
/// the documents differ.
fn cmd_report_diff(p: &Parsed) -> Result<CliOutcome, String> {
    let a_path = p.positionals.get(1).ok_or("report diff needs two paths: diff <a> <b>")?;
    let b_path = p.positionals.get(2).ok_or("report diff needs two paths: diff <a> <b>")?;
    if let Some(extra) = p.positionals.get(3) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let load = |path: &str| -> Result<BTreeMap<String, Value>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not JSON: {e}"))?;
        let mut leaves = BTreeMap::new();
        flatten_json("", &doc, &mut leaves);
        Ok(leaves)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut changed = 0usize;
    let mut unchanged = 0usize;
    for (path, va) in &a {
        match b.get(path) {
            None => {
                changed += 1;
                outln!("- {path} = {}", render_leaf(va));
            }
            Some(vb) if va == vb => unchanged += 1,
            Some(vb) => {
                changed += 1;
                match (as_number(va), as_number(vb)) {
                    (Some(na), Some(nb)) => {
                        outln!(
                            "~ {path}: {} -> {} ({:+})",
                            render_leaf(va),
                            render_leaf(vb),
                            nb - na
                        );
                    }
                    _ => outln!("~ {path}: {} -> {}", render_leaf(va), render_leaf(vb)),
                }
            }
        }
    }
    for (path, vb) in &b {
        if !a.contains_key(path) {
            changed += 1;
            outln!("+ {path} = {}", render_leaf(vb));
        }
    }
    if changed == 0 {
        outln!("identical: {unchanged} leaves agree");
        Ok(CliOutcome::Clean)
    } else {
        outln!("{changed} leaves differ, {unchanged} agree");
        // Same exit class as "the assessment found something": callers
        // gating on drift want a nonzero exit without a CLI error.
        Ok(CliOutcome::Violations)
    }
}

fn cmd_models() -> Result<CliOutcome, String> {
    for uc in all_use_cases() {
        let im = uc.intrusion_model();
        outln!("{:<14} {im}", uc.name());
        if !im.related_advisories.is_empty() {
            outln!("{:<14}   generalizes: {}", "", im.related_advisories.join(", "));
        }
    }
    Ok(CliOutcome::Clean)
}

/// The arguments each command accepts: exactly what its HELP entry
/// lists. `None` for an unknown command.
fn spec(command: &str) -> Option<Spec> {
    let (flags, values, positionals): (&'static [&'static str], &'static [&'static str], bool) =
        match command {
            // `campaign resume <journal>` and `campaign replay <slot>`.
            "campaign" => (
                &["extensions", "json", "progress"],
                &[
                    "jobs", "trace-out", "metrics-out", "shard", "trials", "report-out",
                    "checkpoint", "chaos-seed", "timeline-out",
                ],
                true,
            ),
            "run" => (&[], &["use-case", "version", "mode"], false),
            "randomized" => (&[], &["region", "trials", "seed", "version", "jobs"], false),
            "benchmark" => (&[], &["jobs", "trace-out", "metrics-out"], false),
            "trace" => (&[], &["top"], true),
            "report" => (&[], &[], true),
            "taxonomy" | "models" | "help" | "--help" | "-h" => (&[], &[], false),
            _ => return None,
        };
    Some(Spec { flags, values, positionals })
}

fn run(argv: Vec<String>) -> Result<CliOutcome, String> {
    let command = argv.first().ok_or_else(|| ArgError::MissingCommand.to_string())?;
    let spec = spec(command).ok_or_else(|| format!("unknown command '{command}' (try 'help')"))?;
    let parsed = args::parse(argv, spec).map_err(|e| e.to_string())?;
    match parsed.command.as_str() {
        "campaign" => cmd_campaign(&parsed),
        "run" => cmd_run(&parsed),
        "randomized" => cmd_randomized(&parsed),
        "benchmark" => cmd_benchmark(&parsed),
        "trace" => cmd_trace(&parsed),
        "report" => cmd_report(&parsed),
        "taxonomy" => {
            outln!("{}", xsa_exploits::advisories::render_table1());
            Ok(CliOutcome::Clean)
        }
        "models" => cmd_models(),
        // `help`, `--help` and `-h`: `spec` admits no other command.
        _ => {
            write_stdout(format_args!("{HELP}"));
            Ok(CliOutcome::Clean)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = if argv.is_empty() { vec!["help".to_owned()] } else { argv };
    match run(argv) {
        Ok(outcome) => outcome.exit_code(),
        // CLI errors are harness failures, same exit class as a
        // degraded campaign.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_runs() {
        run(vec!["help".into()]).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(vec!["bogus".into()]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn models_lists_all_use_cases() {
        cmd_models().unwrap();
        assert!(find_use_case("XSA-212-crash").is_some());
        assert!(find_use_case("xsa-182-test").is_some(), "case-insensitive");
        assert!(find_use_case("MGMT-pause").is_some());
        assert!(find_use_case("nope").is_none());
    }

    #[test]
    fn run_single_injection_cell() {
        run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "4.13".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
    }

    #[test]
    fn run_rejects_bad_version_and_mode() {
        let err = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "9.9".into(),
        ])
        .unwrap_err();
        assert!(err.contains("expected one of"));
        let err = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--mode".into(),
            "sideways".into(),
        ])
        .unwrap_err();
        assert!(err.contains("exploit|injection"));
    }

    #[test]
    fn randomized_small_sweep() {
        run(vec![
            "randomized".into(),
            "--region".into(),
            "frames".into(),
            "--trials".into(),
            "2".into(),
            "--version".into(),
            "4.13".into(),
        ])
        .unwrap();
    }

    #[test]
    fn jobs_flag_parses_and_rejects_garbage() {
        run(vec![
            "randomized".into(),
            "--trials".into(),
            "2".into(),
            "--jobs".into(),
            "2".into(),
            "--version".into(),
            "4.13".into(),
        ])
        .unwrap();
        let err = run(vec![
            "randomized".into(),
            "--jobs".into(),
            "many".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--jobs"));
    }

    #[test]
    fn taxonomy_prints() {
        run(vec!["taxonomy".into()]).unwrap();
    }

    #[test]
    fn exit_outcomes_reflect_observations() {
        // The hardened version handles the injected state: exit 0.
        let outcome = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "4.13".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Clean);
        // The vulnerable version crashes: violations, exit 1.
        let outcome = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-212-crash".into(),
            "--version".into(),
            "4.6".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
    }

    #[test]
    fn degradation_dominates_violations_in_exit_mapping() {
        use intrusion_core::{
            CampaignError, CampaignReport, CellOutcome, CellResult, SecurityViolation,
        };
        let cell = |violations: Vec<SecurityViolation>, error: Option<CampaignError>| CellResult {
            use_case: "t".into(),
            version: XenVersion::V4_6,
            mode: Mode::Injection,
            erroneous_state: true,
            violations,
            handled: false,
            notes: vec![],
            error,
            outcome: CellOutcome::Completed,
            wall_time_us: 0,
            hypercalls: 0,
            phase_us: intrusion_core::PhaseTimings::default(),
            snapshot: hvsim::SnapshotStats::default(),
        };
        let outcome = |r: &CampaignReport| CliOutcome::new(r.is_degraded(), r.has_violations());
        let violation = SecurityViolation::HypervisorCrash { message: "x".into() };
        let clean = CampaignReport::from_cells(vec![cell(vec![], None)]);
        assert_eq!(outcome(&clean), CliOutcome::Clean);
        let violated = CampaignReport::from_cells(vec![cell(vec![violation.clone()], None)]);
        assert_eq!(outcome(&violated), CliOutcome::Violations);
        let degraded = CampaignReport::from_cells(vec![
            cell(vec![violation], None),
            cell(vec![], Some(CampaignError::HarnessCrash { payload: "boom".into() })),
        ]);
        assert_eq!(outcome(&degraded), CliOutcome::Degraded);
    }

    #[test]
    fn trace_roundtrip_via_campaign() {
        let dir = std::env::temp_dir();
        let trace = dir.join("cli_trace_roundtrip.jsonl").display().to_string();
        let metrics = dir.join("cli_metrics_roundtrip.json").display().to_string();
        run(vec![
            "campaign".into(),
            "--jobs".into(),
            "2".into(),
            "--trace-out".into(),
            trace.clone(),
            "--metrics-out".into(),
            metrics.clone(),
        ])
        .unwrap();
        run(vec!["trace".into(), "validate".into(), trace.clone()]).unwrap();
        run(vec![
            "trace".into(),
            "summary".into(),
            trace.clone(),
            "--top".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(
            std::fs::read_to_string(&metrics).unwrap().contains("campaign.cells"),
            "metrics snapshot carries the campaign counters"
        );
        let err = run(vec!["trace".into(), "summary".into()]).unwrap_err();
        assert!(err.contains("file path"));
        let err = run(vec!["trace".into(), "frobnicate".into(), trace]).unwrap_err();
        assert!(err.contains("summary|validate"));
    }

    #[test]
    fn streamed_shards_merge_to_the_unsharded_report() {
        let dir = std::env::temp_dir();
        let full = dir.join("cli_stream_full.json").display().to_string();
        let s0 = dir.join("cli_stream_s0.json").display().to_string();
        let s1 = dir.join("cli_stream_s1.json").display().to_string();
        let merged = dir.join("cli_stream_merged.json").display().to_string();
        let stream = |extra: Vec<String>| {
            let mut argv = vec![
                "campaign".into(),
                "--jobs".into(),
                "2".into(),
            ];
            argv.extend(extra);
            run(argv).unwrap()
        };
        let outcome = stream(vec!["--report-out".into(), full.clone()]);
        assert_eq!(outcome, CliOutcome::Violations, "vulnerable versions violate");
        stream(vec!["--shard".into(), "0/2".into(), "--report-out".into(), s0.clone()]);
        stream(vec!["--shard".into(), "1/2".into(), "--report-out".into(), s1.clone()]);
        let _ = std::fs::remove_file(&merged);
        run(vec!["report".into(), "merge".into(), merged.clone(), s0, s1]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
            "merged shard reports must be byte-identical to the unsharded report"
        );
        let err = run(vec!["report".into(), "merge".into(), merged]).unwrap_err();
        assert!(err.contains("at least one input"));
        let err = run(vec!["report".into(), "explode".into()]).unwrap_err();
        assert!(err.contains("expected merge"));
        let err = run(vec!["campaign".into(), "--shard".into(), "5/2".into()]).unwrap_err();
        assert!(err.contains("--shard"));
    }

    #[test]
    fn plain_campaign_report_out_writes_the_stream_report() {
        let out = std::env::temp_dir().join("cli_plain_report_out.json");
        std::fs::remove_file(&out).ok();
        let argv = vec![
            "campaign".into(),
            "--jobs".into(),
            "2".into(),
            "--report-out".into(),
            out.display().to_string(),
        ];
        assert_eq!(run(argv).unwrap(), CliOutcome::Violations);
        let written = StreamReport::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(written, written.normalized(), "the report is written normalized");
        assert_eq!(written.cells, 24, "the full paper grid");
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn checkpointed_run_resumes_to_the_same_report() {
        let dir = std::env::temp_dir();
        let journal = dir.join("cli_ckpt.journal").display().to_string();
        let full = dir.join("cli_ckpt_full.json").display().to_string();
        let resumed = dir.join("cli_ckpt_resumed.json").display().to_string();
        let outcome = run(vec![
            "campaign".into(),
            "--checkpoint".into(),
            journal.clone(),
            "--jobs".into(),
            "2".into(),
            "--report-out".into(),
            full.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
        // Tear the journal's tail (simulating a mid-write kill), then
        // resume: the normalized report must come back byte-identical.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();
        let outcome = run(vec![
            "campaign".into(),
            "resume".into(),
            journal.clone(),
            "--jobs".into(),
            "2".into(),
            "--report-out".into(),
            resumed.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "resumed report must be byte-identical to the uninterrupted one"
        );
        // Resuming something that is not a journal fails loudly.
        let not_journal = dir.join("cli_ckpt_not_a_journal").display().to_string();
        std::fs::write(&not_journal, "definitely not a journal\n").unwrap();
        let err = run(vec!["campaign".into(), "resume".into(), not_journal]).unwrap_err();
        assert!(err.contains("journal"), "non-journals are rejected: {err}");
        let err = run(vec!["campaign".into(), "resume".into()]).unwrap_err();
        assert!(err.contains("journal path"));
        let err = run(vec!["campaign".into(), "sideways".into()]).unwrap_err();
        assert!(err.contains("unexpected argument"));
        for stale in [journal.clone(), full, resumed] {
            std::fs::remove_file(stale).ok();
        }
    }

    #[test]
    fn report_merge_refuses_mismatched_or_overlapping_inputs() {
        let dir = std::env::temp_dir();
        let a = dir.join("cli_merge_a.json").display().to_string();
        let merged = dir.join("cli_merge_out.json").display().to_string();
        run(vec![
            "campaign".into(),
            "--jobs".into(),
            "2".into(),
            "--shard".into(),
            "0/2".into(),
            "--report-out".into(),
            a.clone(),
        ])
        .unwrap();
        // The same shard twice would double-count every slot.
        let _ = std::fs::remove_file(&merged);
        let err =
            run(vec!["report".into(), "merge".into(), merged, a.clone(), a]).unwrap_err();
        assert!(err.contains("overlap"), "overlap is refused loudly: {err}");
    }

    #[test]
    fn chaos_seed_runs_deterministically_degraded() {
        let dir = std::env::temp_dir();
        let r1 = dir.join("cli_chaos_1.json").display().to_string();
        let r8 = dir.join("cli_chaos_8.json").display().to_string();
        let chaos = |jobs: &str, out: &str| {
            run(vec![
                "campaign".into(),
                "--chaos-seed".into(),
                "7".into(),
                "--jobs".into(),
                jobs.into(),
                "--report-out".into(),
                out.into(),
            ])
            .unwrap()
        };
        assert_eq!(chaos("1", &r1), CliOutcome::Degraded, "chaos degrades the run: exit 2");
        assert_eq!(chaos("8", &r8), CliOutcome::Degraded);
        assert_eq!(
            std::fs::read_to_string(&r1).unwrap(),
            std::fs::read_to_string(&r8).unwrap(),
            "seeded chaos is schedule-independent: jobs 1 and 8 agree byte-for-byte"
        );
        let err = run(vec!["campaign".into(), "--chaos-seed".into(), "soon".into()]).unwrap_err();
        assert!(err.contains("--chaos-seed"));
    }

    #[test]
    fn trace_validate_reports_every_bad_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("cli_trace_corrupt.jsonl").display().to_string();
        // Two valid lines from a real tracer, two corrupted lines
        // interleaved: validate must report both with line numbers.
        let tracer = Tracer::enabled();
        drop(tracer.ctx(1).span("cell"));
        let valid = to_jsonl(&tracer.drain());
        let mut lines = valid.lines();
        let first = lines.next().unwrap();
        let second = lines.next().unwrap();
        let text = format!("{first}\nthis is not json\n{second}\n{{\"shard\":1}}\n");
        std::fs::write(&path, text).unwrap();
        let err = run(vec!["trace".into(), "validate".into(), path.clone()]).unwrap_err();
        assert!(err.contains("2 invalid line(s) out of 4"), "all bad lines counted: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_diff_flags_changes_and_identity() {
        let dir = std::env::temp_dir();
        let a = dir.join("cli_diff_a.json").display().to_string();
        let b = dir.join("cli_diff_b.json").display().to_string();
        std::fs::write(&a, r#"{"cells":3,"degraded":0,"tag":"x","gone":1}"#).unwrap();
        std::fs::write(&b, r#"{"cells":5,"degraded":0,"tag":"y","new":[1,2]}"#).unwrap();
        let outcome =
            run(vec!["report".into(), "diff".into(), a.clone(), b.clone()]).unwrap();
        assert_eq!(outcome, CliOutcome::Violations, "differing documents exit 1");
        let outcome = run(vec!["report".into(), "diff".into(), a.clone(), a.clone()]).unwrap();
        assert_eq!(outcome, CliOutcome::Clean, "a document never differs from itself");
        let err = run(vec!["report".into(), "diff".into(), a.clone()]).unwrap_err();
        assert!(err.contains("two paths"));
        let err = run(vec!["report".into(), "diff".into(), a.clone(), b, a]).unwrap_err();
        assert!(err.contains("unexpected argument"));
        let not_json = dir.join("cli_diff_nj.json").display().to_string();
        std::fs::write(&not_json, "][").unwrap();
        let err =
            run(vec!["report".into(), "diff".into(), not_json.clone(), not_json]).unwrap_err();
        assert!(err.contains("not JSON"));
    }

    #[test]
    fn chaos_run_replays_a_degraded_slot_and_writes_timeline() {
        let dir = std::env::temp_dir();
        let report = dir.join("cli_chaos_replay_report.json").display().to_string();
        let timeline = dir.join("cli_timeline.jsonl").display().to_string();
        let trace = dir.join("cli_chaos_replay_slot.jsonl").display().to_string();
        let outcome = run(vec![
            "campaign".into(),
            "--chaos-seed".into(),
            "7".into(),
            "--jobs".into(),
            "2".into(),
            "--progress".into(),
            "--timeline-out".into(),
            timeline.clone(),
            "--report-out".into(),
            report.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Degraded, "seed 7 degrades cells");
        let samples = std::fs::read_to_string(&timeline).unwrap();
        assert!(samples.contains("progress.done"), "timeline carries progress: {samples}");
        assert!(samples.contains("stream.claimed"), "timeline carries stream gauges");
        // Replaying a degraded slot reproduces its degradation and
        // writes a schema-valid trace of it.
        let written = StreamReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let slot = *written.degraded_slots.keys().next().expect("a degraded slot");
        let outcome = run(vec![
            "campaign".into(),
            "replay".into(),
            slot.to_string(),
            "--chaos-seed".into(),
            "7".into(),
            "--trace-out".into(),
            trace.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Degraded, "the replayed cell degrades again: exit 2");
        run(vec!["trace".into(), "validate".into(), trace.clone()]).unwrap();
        let events = parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(events.iter().any(|e| e.path == "cell/degraded" && e.shard == slot + 1));
        let err = run(vec!["campaign".into(), "replay".into(), "many".into()]).unwrap_err();
        assert!(err.contains("slot number"), "{err}");
        let err = run(vec!["campaign".into(), "replay".into(), "999999".into()]).unwrap_err();
        assert!(err.contains("past the end"), "{err}");
        for stale in [report, timeline, trace] {
            std::fs::remove_file(stale).ok();
        }
    }

    #[test]
    fn unknown_options_and_missing_values_are_cli_errors() {
        let cases: [&[&str]; 25] = [
            &["campaign", "--stream"],
            &["campaign", "--retries", "1"],
            &["benchmark", "--retries", "1"],
            &["randomized", "--retries", "1"],
            &["campaign", "--cell-deadline-ms", "50"],
            &["benchmark", "--cell-deadline-ms", "50"],
            &["campaign", "replay", "3", "--checkpoint", "j.journal"],
            &["campaign", "replay", "3", "--report-out", "r.json"],
            &["campaign", "replay", "3", "--json"],
            &["campaign", "replay", "3", "--metrics-out", "m.json"],
            &["campaign", "replay", "3", "--timeline-out", "t.jsonl"],
            &["campaign", "replay", "3", "--progress"],
            &["campaign", "replay", "3", "--jobs", "2"],
            &["campaign", "replay", "3", "--shard", "0/2"],
            &["campaign", "resume", "j.journal", "--checkpoint", "k.journal"],
            &["campaign", "resume", "j.journal", "--trials", "8"],
            &["campaign", "resume", "j.journal", "--shard", "0/2"],
            &["campaign", "resume", "j.journal", "--extensions"],
            &["campaign", "--journal-slots"],
            &["campaign", "--flight-out", "dumps"],
            &["campaign", "--chunk-frames", "1"],
            &["run", "--use-case", "XSA-182-test", "--chekpoint", "x"],
            &["campaign", "--jobs"],
            &["benchmark", "--trials", "2"],
            &["taxonomy", "--no-tlb"],
        ];
        for argv in cases {
            let err = run(argv.iter().map(|&a| a.to_owned()).collect()).unwrap_err();
            let option = argv.iter().rev().find(|a| a.starts_with("--")).unwrap();
            assert!(err.contains(option), "{argv:?} must be refused naming {option}: {err}");
        }
    }

    #[test]
    fn every_accepted_option_is_documented() {
        for command in ["campaign", "run", "randomized", "benchmark", "trace", "report"] {
            let spec = spec(command).unwrap();
            for option in spec.flags.iter().chain(spec.values) {
                assert!(
                    HELP.contains(&format!("--{option}")),
                    "{command} accepts --{option}, which HELP does not list"
                );
            }
        }
    }

    #[test]
    fn fault_containment_flags_parse_and_reject_garbage() {
        run(vec!["randomized".into(), "--trials".into(), "2".into(), "--version".into(), "4.13".into()])
            .unwrap();
    }
}
