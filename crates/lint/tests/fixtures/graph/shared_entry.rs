//! Fixture: supervisord pipeline entry point reaching code outside it.

/// Pipeline entry: fans work out to the scratch helper.
pub fn run_window() {
    dui_netsim::scratch::bump();
}
