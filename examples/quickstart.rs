//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Figure 2 (the hospital tables and their integration) and
//! Figure 4 (mapping, indicator and redundancy matrices; the LMM
//! rewrite), then trains the motivating mortality classifier both
//! materialized and factorized and shows the results agree.
//!
//! Run with: `cargo run --example quickstart`

use amalur::prelude::*;

fn print_matrix(name: &str, m: &DenseMatrix) {
    println!("{name} ({}x{}):", m.rows(), m.cols());
    for i in 0..m.rows() {
        let row: Vec<String> = m.row(i).iter().map(|v| format!("{v:>6.1}")).collect();
        println!("  [{}]", row.join(" "));
    }
}

fn main() {
    // ------------------------------------------------------------------
    // Figure 2a-b: the source tables of the ER and pulmonary departments.
    // ------------------------------------------------------------------
    let s1 = amalur::data::hospital::s1();
    let s2 = amalur::data::hospital::s2();
    println!("== Figure 2: source tables ==\n{s1}\n{s2}");

    // ------------------------------------------------------------------
    // Integration: schema matching + entity resolution discover that
    // S1.m↔S2.m, S1.a↔S2.a and that S1's Jane is S2's Jane.
    // ------------------------------------------------------------------
    let mut system = Amalur::new();
    system
        .register_silo(s1, "er-department")
        .expect("fresh system");
    system
        .register_silo(s2, "pulmonary-department")
        .expect("fresh system");
    let handle = system
        .integrate(
            "S1",
            "S2",
            ScenarioKind::FullOuterJoin,
            &IntegrationOptions::with_key("n", "n"),
        )
        .expect("running example integrates");

    println!("== Schema mappings (tgds of Table I, Example 1) ==");
    let di = system
        .catalog()
        .integration(&handle.id)
        .expect("registered");
    for tgd in &di.tgds {
        println!("  {tgd}");
    }

    // ------------------------------------------------------------------
    // Figure 4a: mapping matrices (full and compressed).
    // ------------------------------------------------------------------
    let md = handle.table.metadata();
    println!("\n== Figure 4a: mapping matrices ==");
    println!("target schema T({})", md.target_columns.join(", "));
    for s in &md.sources {
        println!("CM_{} = {:?}", s.name, s.mapping.compressed());
        print_matrix(&format!("M_{}", s.name), &s.mapping.to_dense());
    }

    // ------------------------------------------------------------------
    // Figure 4b: compressed indicator matrices and the data matrices Dₖ.
    // ------------------------------------------------------------------
    println!("\n== Figure 4b: indicator matrices ==");
    for s in &md.sources {
        println!("CI_{} = {:?}", s.name, s.indicator.compressed());
    }
    for (s, d) in md.sources.iter().zip(handle.table.source_data()) {
        print_matrix(
            &format!("D_{} (cols: {})", s.name, s.mapped_columns.join(",")),
            d,
        );
    }

    // ------------------------------------------------------------------
    // Figure 4c: redundancy matrix and the LMM rewrite.
    // ------------------------------------------------------------------
    println!("\n== Figure 4c: redundancy matrix and LMM rewrite ==");
    let r2 = &md.sources[1].redundancy();
    print_matrix("R_S2", &r2.to_dense());
    println!("(zeros mark Jane's m and a cells — S2 repeats what S1 already contributed)");
    let t1 = handle.table.intermediate(0).expect("shape-checked");
    let t2 = handle.table.intermediate(1).expect("shape-checked");
    print_matrix("T1 = I1 D1 M1'", &t1);
    print_matrix("T2 = I2 D2 M2'", &t2);
    let t = handle.table.materialize();
    print_matrix("T = T1 + T2 ∘ R2 (Figure 2d)", &t);

    // T·X via Equation (2) vs the materialized product.
    let x = DenseMatrix::from_rows(&[
        vec![6.0, 5.0],
        vec![3.0, 2.0],
        vec![2.0, 2.0],
        vec![4.0, 2.0],
    ])
    .expect("static operand");
    let materialized = t.matmul(&x).expect("shapes agree");
    let factorized = handle
        .table
        .lmm(&x, Strategy::Compressed)
        .expect("shapes agree");
    print_matrix("T·X (materialized)", &materialized);
    print_matrix("T·X (factorized, Eq. 2)", &factorized);
    assert!(factorized.approx_eq(&materialized, 1e-9));
    println!("factorized ≡ materialized ✓");

    // ------------------------------------------------------------------
    // The motivating task: predict mortality m from (a, hr, o).
    // ------------------------------------------------------------------
    println!("\n== Mortality classifier: factorized vs materialized ==");
    let config = TrainingConfig {
        epochs: 200,
        learning_rate: 1e-4,
        l2: 0.0,
    };
    let fact = system
        .train_logistic_regression(&handle, 0, &config, ExecutionPlan::Factorize)
        .expect("training succeeds");
    let mat = system
        .train_logistic_regression(&handle, 0, &config, ExecutionPlan::Materialize)
        .expect("training succeeds");
    println!(
        "factorized   loss {:.6}  accuracy {:.2}",
        fact.final_loss, fact.metrics["train_accuracy"]
    );
    println!(
        "materialized loss {:.6}  accuracy {:.2}",
        mat.final_loss, mat.metrics["train_accuracy"]
    );
    assert!(fact.coefficients.approx_eq(&mat.coefficients, 1e-9));
    println!("identical coefficients ✓");

    println!("\n== Catalog after the run ==");
    println!("{}", system.catalog().to_json().expect("serializable"));
}
