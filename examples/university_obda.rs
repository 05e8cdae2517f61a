//! A classic OBDA scenario: querying a university data source through a
//! domain ontology. Shows incomplete-data reasoning (anonymous witnesses),
//! consistency checking, and the adaptive strategy with data statistics.
//!
//! Run with: `cargo run --example university_obda`

use obda::{ObdaSystem, Strategy};
use obda_rewrite::adaptive::{AdaptiveRewriter, DataStats};
use obda_rewrite::omq::Omq;

const ONTOLOGY: &str = "\
Professor SubClassOf Faculty
Lecturer SubClassOf Faculty
Faculty SubClassOf exists worksFor
exists worksFor- SubClassOf Department
Professor SubClassOf exists teaches
exists teaches- SubClassOf Course
teaches SubPropertyOf involvedIn
GradStudent SubClassOf exists enrolledIn
enrolledIn SubPropertyOf involvedIn
exists enrolledIn- SubClassOf Course
Faculty DisjointWith GradStudent
";

const DATA: &str = "\
Professor(ada)
Professor(alan)
Lecturer(barbara)
teaches(alan, logic)
teaches(barbara, databases)
GradStudent(kurt)
GradStudent(grace)
enrolledIn(kurt, logic)
worksFor(barbara, csDept)
";

fn main() {
    let system = ObdaSystem::from_text(ONTOLOGY).expect("ontology parses");
    let data = system.parse_data(DATA).expect("data parses");

    let queries = [
        ("everyone involved in a course", "q(x) :- involvedIn(x, y), Course(y)"),
        ("faculty with a department", "q(x) :- worksFor(x, d), Department(d)"),
        ("named departments only", "q(x, d) :- worksFor(x, d)"),
        ("course-mates", "q(x, y) :- involvedIn(x, c), involvedIn(y, c), Course(c)"),
    ];

    for (label, text) in queries {
        let query = system.parse_query(text).expect("query parses");
        let cell = system.classify(&query);
        let result = system.answer(&query, &data, Strategy::Adaptive).expect("evaluation succeeds");
        println!("{label} [{:?}, {}]:", cell.query, cell.complexity);
        if result.answers.is_empty() {
            println!("  (no certain answers)");
        }
        for tuple in &result.answers {
            let names: Vec<&str> = tuple.iter().map(|&c| data.constant_name(c)).collect();
            println!("  ({})", names.join(", "));
        }
    }

    // The adaptive rewriter reports which strategy its cost model picked.
    let query = system.parse_query("q(x) :- involvedIn(x, y), Course(y)").expect("query parses");
    let adaptive = AdaptiveRewriter { stats: DataStats::of(&data) };
    let omq = Omq::new(system.ontology(), &query);
    let (_, winner, cost) = adaptive.rewrite_with_report(&omq).expect("a strategy applies");
    println!("\nadaptive choice: {winner} (estimated cost {cost:.1})");

    // Consistency: kurt cannot be both faculty and a student.
    let inconsistent =
        system.parse_data("Professor(kurt)\nGradStudent(kurt)\n").expect("data parses");
    let q = system.parse_query("q(x) :- Course(x)").expect("query parses");
    let res = system.answer(&q, &inconsistent, Strategy::Tw).expect("evaluation succeeds");
    println!(
        "inconsistent KB: every individual is a certain answer ({} tuples)",
        res.answers.len()
    );
}
