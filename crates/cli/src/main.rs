//! `cold` — command-line interface to the COLD reproduction.
//!
//! ```text
//! cold generate --users 300 --communities 6 --topics 6 --out world.json
//! cold train    --data world.json --communities 6 --topics 6 --out model.json
//! cold topics   --model model.json --data world.json
//! cold communities --model model.json --data world.json
//! cold predict  --model model.json --data world.json --publisher 0 --consumer 1 --post 0
//! cold influence --model model.json --topic 0
//! cold eval     --model model.json --data world.json
//! cold serve    --model model.cold --port 8391
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set at the workspace baseline.

mod args;
mod commands;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    };
    let Some(known) = commands::flags(command) else {
        eprintln!("unknown command '{command}'\n\n{}", commands::USAGE);
        std::process::exit(2);
    };
    let args = match Args::parse(rest, known) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "train" => commands::train(&args),
        "topics" => commands::topics(&args),
        "communities" => commands::communities(&args),
        "predict" => commands::predict(&args),
        "influence" => commands::influence(&args),
        "eval" => commands::eval(&args),
        "serve" => commands::serve(&args),
        "metrics-check" => commands::metrics_check(&args),
        "ckpt-inspect" => commands::ckpt_inspect(&args),
        "replay-check" => commands::replay_check(&args),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => unreachable!("commands::flags lists '{other}' but main does not dispatch it"),
    };
    if let Err(err) = result {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}
