//! Appendix Table 10: the MAV detection steps of every plugin — printed
//! from the sentences of `nokeys_scanner::plugin::PLUGINS`, the rows the
//! stage-III interpreter runs. `plugin.rs`'s
//! `table10_sentences_quote_every_path_marker_and_key` holds each row's
//! paths, markers, selectors and JSON keys to its sentences, so the
//! documentation cannot drift from the implementation.

use crate::render::Table;
use nokeys_apps::AppId;
use nokeys_scanner::plugin_steps;

/// Build Table 10.
pub fn build() -> Table {
    let mut t = Table::new(
        "Table 10 — MAV detection steps (from the plugin registry)",
        &["Application", "Step", "Description"],
    );
    for app in AppId::in_scope() {
        for (i, step) in plugin_steps(app).enumerate() {
            let name = if i == 0 {
                app.name().to_string()
            } else {
                String::new()
            };
            t.row(&[name, (i + 1).to_string(), step.to_string()]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_in_scope_app_has_documented_steps() {
        let t = build();
        let s = t.render();
        for app in AppId::in_scope() {
            assert!(s.contains(app.name()), "{app} missing from Table 10");
        }
        assert!(s.contains("/wp-admin/install.php"));
        assert!(s.contains("/v1/agent/self"));
    }
}
