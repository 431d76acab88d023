//! **Figure 4**: prints the mapping, indicator and redundancy matrices
//! of the running example, and the LMM-rewrite verification — the exact
//! artifacts of the paper's Figure 4a-c.
//!
//! Run with: `cargo run -p amalur-bench --bin figure4`

use amalur_data::hospital;
use amalur_factorize::{reference, FactorizedTable, LinOps};
use amalur_integration::{integrate_pair, IntegrationOptions, ScenarioKind};
use amalur_matrix::DenseMatrix;

fn show(name: &str, m: &DenseMatrix) {
    println!("{name} ({}x{}):", m.rows(), m.cols());
    for i in 0..m.rows() {
        let cells: Vec<String> = m.row(i).iter().map(|v| format!("{v:>5.0}")).collect();
        println!("  [{}]", cells.join(" "));
    }
}

fn main() {
    let result = integrate_pair(
        &hospital::s1(),
        &hospital::s2(),
        ScenarioKind::FullOuterJoin,
        &IntegrationOptions::with_key("n", "n"),
    )
    .expect("the running example integrates");
    let tgds: Vec<String> = result.tgds.iter().map(ToString::to_string).collect();
    let ft = FactorizedTable::from_integration(result).expect("consistent metadata");
    let md = ft.metadata();

    println!("Figure 4 reproduction — the running example's DI metadata\n");
    println!("schema mappings:");
    for t in &tgds {
        println!("  {t}");
    }
    println!("\ntarget schema: T({})", md.target_columns.join(", "));

    println!("\n(a) mapping matrices");
    for s in &md.sources {
        println!("  CM_{} = {:?}", s.name, s.mapping.compressed());
    }
    for s in &md.sources {
        show(&format!("M_{}", s.name), &s.mapping.to_dense());
    }

    println!("\n(b) indicator matrices (compressed) and data matrices");
    for s in &md.sources {
        println!("  CI_{} = {:?}", s.name, s.indicator.compressed());
    }
    for (s, d) in md.sources.iter().zip(ft.source_data()) {
        show(&format!("D_{} [{}]", s.name, s.mapped_columns.join(",")), d);
    }

    println!("\n(c) redundancy matrix and LMM rewrite");
    show("R_S2", &md.sources[1].redundancy().to_dense());
    show("T1 = I1·D1·M1ᵀ", &ft.intermediate(0).expect("in range"));
    show(
        "T2 = I2·D2·M2ᵀ  (note Jane's duplicated m, a)",
        &ft.intermediate(1).expect("in range"),
    );
    show("T  = T1 + T2∘R2  (Figure 2d)", &ft.materialize());

    let x = DenseMatrix::from_rows(&[
        vec![6.0, 5.0],
        vec![3.0, 2.0],
        vec![2.0, 2.0],
        vec![4.0, 2.0],
    ])
    .expect("static operand");
    show("X", &x);
    let literal = reference::equation2_lmm(&ft, &x).expect("shapes agree");
    show("T·X = T1·X + (T2∘R2)·X  (Eq. 2, literal)", &literal);
    let fact = ft.mul_right(&x).expect("shapes agree");
    show("T·X via Eq. 2 (factorized)", &fact);
    let materialized = ft.materialize().matmul(&x).expect("shapes agree");
    show("T·X materialized (reference)", &materialized);
    let equal = fact.approx_eq(&materialized, 1e-9) && literal.approx_eq(&materialized, 1e-9);
    println!(
        "\nEq. 2, literal and factorized, matches the materialized product: {}",
        if equal { "✓" } else { "✗" }
    );
}
