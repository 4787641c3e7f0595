"""Sign families with limited independence and their excursion bounds."""

__version__ = "0.1.0"
