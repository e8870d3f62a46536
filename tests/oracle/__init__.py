"""Reference implementations the program is tested against (see ``scalar``)."""
