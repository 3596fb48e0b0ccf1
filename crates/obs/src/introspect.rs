//! Named introspection pages: the process-global registry live
//! services publish their counters through and `detdiv-scope` serves
//! (`/servez` reads `"serve"`, `/guardz` reads `"guard"`).
//!
//! A page is a render function over a shared source. Each name holds
//! at most one page, and a later registration wins. Deregistering a
//! source that is no longer the registered one is a no-op, so an older
//! service dropping late cannot clear a newer one's page. Tests build
//! services without registering, so parallel tests never share a name.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The body rendered for a name with nothing registered.
const UNREGISTERED: &str = "{\"registered\":false}";

/// A registered page: its source's address (the source's identity for
/// [`deregister`]) and its renderer.
type Page = (usize, Box<dyn Fn() -> String + Send>);

static PAGES: Mutex<BTreeMap<&'static str, Page>> = Mutex::new(BTreeMap::new());

fn pages() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Page>> {
    PAGES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes `source` under `name`, rendered by `render`, replacing
/// any earlier registration under that name.
pub fn register<T: Send + Sync + 'static>(
    name: &'static str,
    source: &Arc<T>,
    render: fn(&T) -> String,
) {
    let shared = Arc::clone(source);
    let page: Page = (
        Arc::as_ptr(source) as usize,
        Box::new(move || render(&shared)),
    );
    pages().insert(name, page);
}

/// Removes the page under `name` if `source` is still its source.
pub fn deregister<T>(name: &str, source: &Arc<T>) {
    let mut pages = pages();
    if pages
        .get(name)
        .is_some_and(|(at, _)| *at == Arc::as_ptr(source) as usize)
    {
        pages.remove(name);
    }
}

/// The page registered under `name`, or `{"registered":false}`.
pub fn render(name: &str) -> String {
    pages()
        .get(name)
        .map_or_else(|| UNREGISTERED.to_owned(), |(_, render)| render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn show(n: &u64) -> String {
        format!("{{\"n\":{n}}}")
    }

    #[test]
    fn later_registration_wins_and_stale_deregistration_is_a_no_op() {
        let name = "unit_introspect";
        assert_eq!(render(name), UNREGISTERED);
        let older = Arc::new(1u64);
        register(name, &older, show);
        assert_eq!(render(name), "{\"n\":1}");
        let newer = Arc::new(2u64);
        register(name, &newer, show);
        assert_eq!(render(name), "{\"n\":2}");
        deregister(name, &older);
        assert_eq!(render(name), "{\"n\":2}", "a stale handle clears nothing");
        deregister(name, &newer);
        assert_eq!(render(name), UNREGISTERED);
    }

    #[test]
    fn names_are_independent() {
        let a = Arc::new(3u64);
        let b = Arc::new(4u64);
        register("unit_introspect_a", &a, show);
        register("unit_introspect_b", &b, show);
        deregister("unit_introspect_a", &b);
        assert_eq!(render("unit_introspect_a"), "{\"n\":3}");
        deregister("unit_introspect_a", &a);
        assert_eq!(render("unit_introspect_a"), UNREGISTERED);
        assert_eq!(render("unit_introspect_b"), "{\"n\":4}");
        deregister("unit_introspect_b", &b);
    }
}
