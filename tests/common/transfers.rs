// The money-transfer scripts, `include!`d (one definition, two test crates)
// by `tests/conservation.rs` and `tests/obs_projection.rs`; the including
// module brings `BankAccount`, `BankInv`, `BankResp`, `ConditionalScript`,
// `ObjectId`, `Script` and `Step` into scope.

const ACCOUNTS: u32 = 3;

/// Transfer 2 units from account `from` to `to`; abort when the withdrawal
/// is refused. ConditionalScript takes a fn pointer, so the three rotations
/// are enumerated.
fn transfer(from: u32, to: u32) -> ConditionalScript<BankAccount> {
    match (from, to) {
        (0, 1) => ConditionalScript::new(|pos, last| step(pos, last, 0, 1)),
        (1, 2) => ConditionalScript::new(|pos, last| step(pos, last, 1, 2)),
        (2, 0) => ConditionalScript::new(|pos, last| step(pos, last, 2, 0)),
        _ => unreachable!("rotations only"),
    }
}

fn step(pos: usize, last: Option<&BankResp>, from: u32, to: u32) -> Step<BankAccount> {
    match pos {
        0 => Step::Invoke(ObjectId(from), BankInv::Withdraw(2)),
        1 => match last {
            Some(BankResp::Ok) => Step::Invoke(ObjectId(to), BankInv::Deposit(2)),
            _ => Step::Abort,
        },
        _ => Step::Commit,
    }
}

/// `n` transfers, script `i` from account `i mod 3` to the next.
fn transfers(n: usize) -> Vec<Box<dyn Script<BankAccount>>> {
    (0..n)
        .map(|i| {
            let from = (i as u32) % ACCOUNTS;
            let to = (from + 1) % ACCOUNTS;
            Box::new(transfer(from, to)) as Box<dyn Script<BankAccount>>
        })
        .collect()
}
